"""The benchmark drives the engine faithfully.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH), str(ROOT)]

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from comap import runtime  # noqa: E402
from comap.scenario import UserMetrics, run_scenario  # noqa: E402
from tests.conftest import overlapping_users_config, planted_change_config  # noqa: E402


def one_pass(workload, seed=0, workdir=None):
    prepared = workload.prepare(seed, workdir)
    setup = workload.setup(seed, prepared)
    return harness.run_pass(workload, setup), setup


def strip_interleaved(trace):
    drop = {"upload": {"frame_id"}, "session_end": {"frames", "points"}}
    return [{k: v for k, v in ev.items() if k not in drop.get(ev["event"], ())} for ev in trace]


def test_fleet20_matches_run_scenario():
    wl = workloads.WORKLOADS["fleet20"]
    result, setup = one_pass(wl)
    server = setup.server
    got = [
        vars(UserMetrics.from_result(c.user, c.user.mode, r, t))
        for c, r, t in zip(setup.clients, result.results, result.transports)
    ]
    want = run_scenario(overlapping_users_config()).to_dict()
    assert got == want["users"]
    assert want["server"] == {
        "frames": len(server.map.frames),
        "points": len(server.map.points),
        "memory_bytes": server.map.memory_estimate_bytes(),
        "ingress": server.ingress_bytes,
        "egress": server.egress_bytes,
    }
    assert not result.problems


def test_stale_snapshot_first_follower_matches_planted_change(tmp_path):
    result, _ = one_pass(workloads.StaleSnapshot(distant=False), workdir=tmp_path)
    want = run_scenario(planted_change_config())
    assert result.results[0].client_id == 3
    assert strip_interleaved(result.results[0].trace) == strip_interleaved(want.traces[3])
    assert result.results[0].update_events == want.update_events[3]


def test_stale_snapshot_decisions_ignore_distant_region(tmp_path):
    near, near_setup = one_pass(workloads.StaleSnapshot(distant=False), workdir=tmp_path)
    far, far_setup = one_pass(workloads.StaleSnapshot(distant=True), workdir=tmp_path)
    assert len(far_setup.server.map.points) >= len(near_setup.server.map.points) + 12000
    for a, b in zip(near.results, far.results):
        assert strip_interleaved(a.trace) == strip_interleaved(b.trace)
        assert a.update_events == b.update_events
        assert a.stats == b.stats
    assert not near.problems and not far.problems


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_matches_untraced(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    plain, _ = one_pass(wl, workdir=tmp_path)
    original = runtime.assess_overlap
    with tracing.Tracer() as tracer:
        traced, _ = one_pass(wl, workdir=tmp_path)
    assert runtime.assess_overlap is original
    assert traced.digest == plain.digest
    assert traced.user_bytes == plain.user_bytes
    assert tracer.spans and not traced.problems


def test_gate_rejects_a_wrong_reference():
    wl = workloads.WORKLOADS["fleet20"]
    result, _ = one_pass(wl)
    run = harness.Run(setup_times=[0.0], passes=[result])
    assert harness.gate(wl, run, {"decisions": result.digest, "user_bytes": result.user_bytes}) == []
    problems = harness.gate(wl, run, {"decisions": "0" * 64, "user_bytes": result.user_bytes})
    assert any("decision digest" in p for p in problems)


def test_refuses_to_run_without_engine_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet20", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_expected_reference_covers_every_workload():
    recorded = json.loads((BENCH / "expected.json").read_text())
    assert set(recorded) == set(workloads.WORKLOADS)
