import json
import os
import select
import signal
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
import yaml

import comap
from comap.cli import main
from comap.mapstore import GlobalMap, load_snapshot, state_digest
from comap.runtime import InProcTransport, MapServer
from comap.scenario import Metrics, config_from_dict, drive_user
from comap.sim import generate_scene

SOLO_CLIENT = Path(__file__).resolve().parents[1] / "demos" / "configs" / "solo_client.yaml"

SCENARIO_YAML = """
seed: 5
mode: mapxx
scene:
  seed: 9
  bounds: [[-25, -25, -18], [55, 25, 22]]
  landmark_count: 9000
sim:
  d_kf: 2.0
  noise_sigma: 0.05
users:
  - client_id: 1
    preset: sim_752x480
    role: mapper
    waypoints: [[0, 0, 1.5, 0.0], [30, 0, 1.5, 0.0]]
  - client_id: 2
    preset: sim_752x480
    role: follower
    alpha: 1.3
    waypoints: [[0, 0, 1.5, 0.0], [30, 0, 1.5, 0.0]]
"""

CLIENT_YAML = """
seed: 5
scene:
  seed: 9
  bounds: [[-25, -25, -18], [55, 25, 22]]
  landmark_count: 9000
sim:
  d_kf: 2.0
  noise_sigma: 0.05
users:
  - client_id: 7
    preset: sim_752x480
    waypoints: [[0, 0, 1.5, 0.0], [20, 0, 1.5, 0.0]]
"""


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "two_users.yaml"
    path.write_text(SCENARIO_YAML)
    return path


class TestSimulate:
    def test_writes_metrics_with_two_user_rows(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "out"
        rc = main(["simulate", str(scenario_file), "--out", str(out)])
        assert rc == 0
        rows = (out / "metrics_mapxx.csv").read_text().strip().splitlines()
        assert len(rows) == 3
        data = json.loads((out / "metrics_mapxx.json").read_text())
        assert len(data["users"]) == 2
        assert "latency_percentiles" not in data["server"]
        telemetry = json.loads((out / "telemetry_mapxx.json").read_text())
        assert telemetry["server"]["latency_percentiles"]["OverlapQueryMsg"]["count"] > 0
        assert (out / "trace_mapxx_1.jsonl").exists()
        assert "client_id" in capsys.readouterr().out

    def test_with_vanilla_baseline_and_report(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "out"
        rc = main(["simulate", str(scenario_file), "--out", str(out), "--with-vanilla"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "reduction vs vanilla" in text
        rc = main([
            "report",
            str(out / "metrics_mapxx.json"),
            str(out / "metrics_vanilla.json"),
        ])
        assert rc == 0
        assert "reduction vs vanilla" in capsys.readouterr().out

    def test_report_from_saved_metrics_matches_the_run(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "out"
        assert main(["simulate", str(scenario_file), "--out", str(out), "--with-vanilla"]) == 0
        simulated = capsys.readouterr().out
        saved = [out / "metrics_mapxx.json", out / "metrics_vanilla.json"]
        for path in saved:
            raw = json.loads(path.read_text())
            assert Metrics.from_dict(raw).to_dict() == raw
        assert main(["report", *map(str, saved)]) == 0
        assert simulated == capsys.readouterr().out + f"metrics written to {out}\n"

    def test_seed_override_changes_output(self, tmp_path, scenario_file):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["--seed", "5", "simulate", str(scenario_file), "--out", str(out_a)]) == 0
        assert main(["--seed", "6", "simulate", str(scenario_file), "--out", str(out_b)]) == 0
        a = json.loads((out_a / "metrics_mapxx.json").read_text())
        b = json.loads((out_b / "metrics_mapxx.json").read_text())
        assert a["seed"] != b["seed"]

    def test_missing_config_is_error_exit_1(self, tmp_path, capsys):
        rc = main(["simulate", str(tmp_path / "nope.yaml")])
        assert rc == 1
        assert "error" in capsys.readouterr().err.lower()


class TestUsage:
    def test_unknown_flag_exits_2(self, scenario_file):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(scenario_file), "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestServeAndClient:
    def test_malformed_snapshot_exits_2_and_keeps_the_file(self, tmp_path, capsys):
        snapshot = tmp_path / "map.mpps"
        snapshot.write_bytes(b"MPPS" + bytes(40))
        rc = main(["serve", "127.0.0.1:0", "--snapshot", str(snapshot), "--max-sessions", "1"])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"cannot load snapshot {snapshot}")
        assert snapshot.read_bytes() == b"MPPS" + bytes(40)

    def test_v1_snapshot_exits_2_and_keeps_the_file(self, tmp_path, capsys):
        # A version-1 map of one frame listing one point: the point record
        # carries its observation count, owner count and owner frame ids.
        v1 = (
            b"MPPS" + struct.pack("<HHII", 1, 300, 1, 1)
            + struct.pack("<q3d32sIHq", 7, 1.0, 2.0, 3.0, bytes(32), 1, 1, 1)
            + struct.pack("<qIId6ddHH", 1, 1, 0, 0.0, *[0.0] * 6, 1.2, 1000, 1)
            + struct.pack("<q", 7)
        )
        snapshot = tmp_path / "map.mpps"
        snapshot.write_bytes(v1)
        rc = main(["serve", "127.0.0.1:0", "--snapshot", str(snapshot), "--max-sessions", "1"])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"cannot load snapshot {snapshot}: unsupported snapshot version 1"]
        assert snapshot.read_bytes() == v1

    def test_loopback_session_reproduces_inproc_decisions(self, tmp_path, capsys):
        traj = tmp_path / "client.yaml"
        traj.write_text(CLIENT_YAML)
        snapshot = tmp_path / "map.mpps"

        server_rc = {}

        def run_server():
            server_rc["rc"] = main(
                ["serve", "127.0.0.1:39217", "--snapshot", str(snapshot), "--max-sessions", "1"]
            )

        t = threading.Thread(target=run_server, daemon=True)
        t.start()
        time.sleep(0.4)
        trace_tcp = tmp_path / "trace_tcp.jsonl"
        rc = main(["client", "127.0.0.1:39217", str(traj), "--trace", str(trace_tcp)])
        assert rc == 0
        t.join(timeout=15)
        assert server_rc.get("rc") == 0
        assert snapshot.exists()
        loaded = load_snapshot(snapshot)
        assert len(loaded.frames) > 0

        # The same single-user scenario through the in-process path must
        # produce the identical decision trace, byte for byte.
        raw = yaml.safe_load(CLIENT_YAML)
        raw["transport"] = "inproc"
        from comap.scenario import config_from_dict, run_scenario, write_trace_jsonl

        metrics = run_scenario(config_from_dict(raw))
        trace_inproc = tmp_path / "trace_inproc.jsonl"
        write_trace_jsonl(metrics.traces[7], trace_inproc)
        assert trace_tcp.read_bytes() == trace_inproc.read_bytes()


class TestServeStops:
    def test_sigterm_saves_the_snapshot_like_sigint(self, tmp_path):
        # A child `comap serve` takes one client's uploads, then gets
        # SIGTERM, the default signal of `kill`: it must exit 0 and save the
        # map those uploads built.
        snapshot = tmp_path / "map.mpps"
        src = str(Path(comap.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        child = subprocess.Popen(
            [sys.executable, "-u", "-m", "comap.cli", "serve", "127.0.0.1:0",
             "--snapshot", str(snapshot)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            ready, _, _ = select.select([child.stdout], [], [], 30.0)
            assert ready, "server did not start"
            line = child.stdout.readline().strip()
            assert line.startswith("serving on "), line
            addr = line.removeprefix("serving on ")
            assert main(["client", addr, str(SOLO_CLIENT)]) == 0
            child.send_signal(signal.SIGTERM)
            assert child.wait(timeout=30) == 0, child.stderr.read()
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
            child.stderr.close()
        assert snapshot.exists()

        # The same uploads, in process, onto the map `comap serve` starts with.
        cfg = config_from_dict(yaml.safe_load(SOLO_CLIENT.read_text()))
        scene = generate_scene(cfg.scene_seed, cfg.bounds, cfg.landmark_count, cfg.clusters)
        server = MapServer(GlobalMap(), seed=0)
        result = drive_user(cfg, cfg.users[0], scene, InProcTransport(server))
        assert result.uploads > 0 and not result.aborted
        assert state_digest(load_snapshot(snapshot)) == state_digest(server.map)
