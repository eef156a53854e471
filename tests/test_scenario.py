import json
from dataclasses import fields, replace

import numpy as np
import pytest

from comap.params import FULL_KEYFRAME_BYTES
from comap.scenario import (
    config_from_dict,
    freshness_traffic_report,
    load_config,
    render_report,
    run_scenario,
    vanilla_twin,
    write_metrics_csv,
    write_metrics_json,
    write_trace_jsonl,
)
from comap.sim import TrajectorySpec

from conftest import SIM_INTR, overlapping_users_config, two_user_config


class TestRunScenarioBasics:
    def test_cold_start_single_mapper(self):
        cfg = two_user_config(length=40.0, landmarks=12000)
        cfg.users = cfg.users[:1]
        metrics = run_scenario(cfg)
        vanilla = run_scenario(vanilla_twin(cfg))
        u = metrics.user(1)
        v = vanilla.user(1)
        # Fresh trajectory: freshness ~ 1, payload within 10% of vanilla.
        assert u.freshness > 0.99
        assert abs(u.keyframe_payload_bytes - v.keyframe_payload_bytes) <= 0.1 * v.keyframe_payload_bytes
        overhead = u.total_upload_bytes - u.keyframe_payload_bytes
        queries = u.upload_bytes.get("query", 0)
        assert queries == u.keyframes * 64
        assert overhead <= queries + u.upload_bytes.get("session", 0) + 1

    def test_conservation_of_bytes(self):
        metrics = run_scenario(two_user_config(length=30.0, landmarks=9000))
        assert sum(u.transport_sent for u in metrics.users) == metrics.server_ingress
        assert sum(u.transport_received for u in metrics.users) == metrics.server_egress
        for u in metrics.users:
            assert u.total_upload_bytes == u.transport_sent
            assert u.total_download_bytes == u.transport_received

    def test_baseline_dominance(self):
        cfg = two_user_config(length=40.0, landmarks=12000)
        m = run_scenario(cfg)
        twin = vanilla_twin(cfg)
        v = run_scenario(twin)
        # The twin is the scenario with only the mode changed, its own and each user's.
        for f in fields(cfg):
            if f.name == "bounds":
                np.testing.assert_array_equal(twin.bounds, cfg.bounds)
            elif f.name not in ("mode", "users"):
                assert getattr(twin, f.name) == getattr(cfg, f.name), f.name
        assert twin.mode == "vanilla"
        assert all(u.mode == "vanilla" for u in twin.users)
        assert [replace(t, mode=u.mode) for t, u in zip(twin.users, cfg.users)] == cfg.users
        overhead = sum(
            u.upload_bytes.get("query", 0) + u.upload_bytes.get("shared_map", 0)
            for u in m.users
        )
        assert m.total_upload_bytes <= v.total_upload_bytes + overhead

    def test_second_user_payload_under_20_percent(self):
        cfg = two_user_config()
        m = run_scenario(cfg)
        v = run_scenario(vanilla_twin(cfg))
        assert m.user(2).keyframe_payload_bytes <= 0.2 * v.user(2).keyframe_payload_bytes
        assert m.user(2).freshness < 0.05
        assert m.user(1).freshness > 0.99

    def test_twenty_user_overlap_reduction(self):
        cfg = overlapping_users_config()
        m = run_scenario(cfg)
        v = run_scenario(vanilla_twin(cfg))
        reduction = 1.0 - m.total_upload_bytes / v.total_upload_bytes
        assert reduction >= 0.35
        assert m.audit_violations == []

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            two_user_config(mode="quantum")

    def test_no_uploads_while_localization_succeeds(self):
        # A keyframe served by a succeeding shared slice generates no
        # keyframe traffic; uploads only follow unseen verdicts or the
        # device loop deciding to expand.
        m = run_scenario(two_user_config())
        trace = m.traces[2]
        last_localize_ok = False
        for ev in trace:
            if ev["event"] in ("localize_local", "localize"):
                last_localize_ok = ev["success"]
            elif ev["event"] == "keyframe":
                pass
            elif ev["event"] == "upload":
                assert not last_localize_ok, f"upload right after a successful localize: {ev}"


class TestFreshnessReport:
    def test_identical_trajectories_saturate(self):
        m = run_scenario(two_user_config())
        report = freshness_traffic_report(m)
        rows = {r["client_id"]: r for r in report["rows"]}
        assert rows[2]["freshness"] < 0.05
        assert rows[2]["upload_kb_per_keyframe"] == 0.0
        assert rows[1]["freshness"] > 0.99

    def test_disjoint_trajectories_all_fresh(self):
        cfg = two_user_config(length=30.0, landmarks=20000)
        cfg.users[1].trajectory = TrajectorySpec(
            waypoints=[(0.0, 400.0, 1.5, 0.0), (30.0, 400.0, 1.5, 0.0)], d_kf=2.0
        )
        cfg.bounds = np.array([[-25.0, -30.0, -18.0], [55.0, 430.0, 22.0]])
        m = run_scenario(cfg)
        v = run_scenario(vanilla_twin(cfg))
        for cid in (1, 2):
            assert m.user(cid).freshness > 0.99
            assert m.user(cid).keyframe_payload_bytes == v.user(cid).keyframe_payload_bytes

    def test_rank_correlation_across_users(self):
        m = run_scenario(overlapping_users_config(n_users=8, landmarks=30000))
        report = freshness_traffic_report(m)
        assert report["spearman_freshness_upload"] > 0.9

    def test_render_report_includes_reduction(self):
        cfg = two_user_config(length=20.0, landmarks=8000)
        m = run_scenario(cfg)
        v = run_scenario(vanilla_twin(cfg))
        text = render_report(freshness_traffic_report(m, v))
        assert "reduction vs vanilla" in text
        assert "client_id" in text

    def test_vanilla_equivalent_kb_uses_full_keyframe_constant(self):
        m = run_scenario(two_user_config(length=20.0, landmarks=8000))
        report = freshness_traffic_report(m)
        row = report["rows"][0]
        kf = m.user(row["client_id"]).keyframes
        assert row["vanilla_equivalent_kb"] == pytest.approx(kf * FULL_KEYFRAME_BYTES / 1024)


class TestMetricsFiles:
    def test_csv_and_json_written(self, tmp_path):
        m = run_scenario(two_user_config(length=20.0, landmarks=8000))
        csv_path = tmp_path / "metrics.csv"
        json_path = tmp_path / "metrics.json"
        write_metrics_csv(m, csv_path)
        write_metrics_json(m, json_path)
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 users
        loaded = json.loads(json_path.read_text())
        assert {u["client_id"] for u in loaded["users"]} == {1, 2}
        assert loaded["server"]["ingress"] == m.server_ingress

    def test_fixed_config_gives_byte_identical_metrics_json(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            write_metrics_json(run_scenario(two_user_config(length=20.0, landmarks=8000)), path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_trace_jsonl(self, tmp_path):
        m = run_scenario(two_user_config(length=10.0, landmarks=6000))
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(m.traces[1], path)
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert events == m.traces[1]


class TestConfigLoading:
    def test_yaml_roundtrip(self, tmp_path):
        text = """
seed: 5
mode: mapxx
transport: inproc
scene:
  seed: 9
  bounds: [[-20, -20, -15], [60, 20, 20]]
  landmark_count: 4000
  clusters:
    - {label: cars, count: 30, center: [20, 0, 2], sigma: 2.0}
protocol:
  h: 20.0
  t_seen: 0.9
  f: 2
  match_threshold: 75
  np_max: 300
  alpha: 1.3
sim:
  d_kf: 2.0
  theta_kf_deg: 20.0
  noise_sigma: 0.05
users:
  - client_id: 1
    preset: sim_752x480
    role: mapper
    waypoints: [[0, 0, 1.5, 0.0], [30, 0, 1.5, 0.0]]
  - client_id: 2
    intrinsics: [634.2, 634.8, 631.8, 359.5]
    role: follower
    alpha: 1.3
    waypoints: [[0, 0, 1.5, 0.0], [30, 0, 1.5, 0.0]]
"""
        path = tmp_path / "scenario.yaml"
        path.write_text(text)
        cfg = load_config(path)
        assert cfg.seed == 5
        assert cfg.landmark_count == 4000
        assert len(cfg.users) == 2
        assert cfg.users[0].intrinsics == SIM_INTR
        assert cfg.users[1].intrinsics.fx == pytest.approx(634.2)
        assert cfg.users[1].alpha == 1.3
        assert cfg.params.h == 20.0
        metrics = run_scenario(cfg)
        assert len(metrics.users) == 2

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict(
                {
                    "users": [
                        {"client_id": 1, "preset": "nokia3310", "waypoints": [[0, 0, 0, 0], [1, 0, 0, 0]]}
                    ]
                }
            )

    def test_scene_ops_applied_per_user(self):
        cfg = two_user_config(length=30.0, landmarks=9000)
        cfg.clusters = [{"label": "cars", "count": 40, "center": [15.0, 2.0, 2.0], "sigma": 1.5}]
        cfg.users[1].scene_ops = [{"op": "remove_cluster", "cluster": "cars"}]
        metrics = run_scenario(cfg)  # must simply run clean
        assert metrics.audit_violations == []
