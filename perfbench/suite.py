"""Run every workload several times and print every end-to-end metric.

    python3 perfbench/suite.py --runs 10 --out perfbench/out/base.json
    python3 perfbench/suite.py --runs 3 --trace      # adds one traced run each

Each run is its own process (``run.py``), so ``peak_rss_mb`` belongs to one
workload. Run ``i`` uses seed ``first_seed + i``. Prints, per workload and
metric, the median, quartiles and spread (interquartile range over median)
against the metric's bound, and writes all results to ``--out`` for
``compare.py``. With ``--trace``, also prints each workload's per-layer
summary and the tracing overhead (traced against untraced ``kf_per_s``).
Exits 1 if any run failed its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from compare import load_bench, metric_values, quartiles, spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def machine() -> dict:
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": versions[0], "scipy": versions[1], "platform": platform.platform()}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stderr)
    result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 0,
                                                   "failed": 0, "metrics": {}}
    result.update(seed=seed, trace=trace, exit=proc.returncode, run_s=wall)
    return result


def print_layers(workload: str, seed: int, untraced: list[dict], traced: dict):
    layers = json.loads((HERE / "out" / f"layers-{workload}-s{seed}.json").read_text())
    base = statistics.median(metric_values(untraced, "kf_per_s"))
    kf = traced["metrics"]["trace.kf_per_s"]["value"]
    print(f"\n{workload}: per-layer spans per pass (seed {seed}); tracing overhead "
          f"{1 - kf / base:+.1%} kf_per_s ({kf:.2f} traced vs {base:.2f} untraced median)")
    print(f"  {'span':<40} {'calls':>9} {'self_s':>9} {'total_s':>9} {'work':>11}")
    for row in layers["layers"]:
        print(f"  {row['span']:<40} {row['calls']:>9.1f} {row['self_s']:>9.4f} "
              f"{row['total_s']:>9.4f} {row['work']:>11.1f}")


def main(argv=None) -> int:
    bench = load_bench()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", type=Path,
                    default=HERE / "out" / f"results-{time.strftime('%Y%m%d-%H%M%S')}.json")
    args = ap.parse_args(argv)

    runs: dict[str, list[dict]] = {}
    traced: dict[str, dict] = {}
    for wl in args.workloads.split(","):
        runs[wl] = []
        for i in range(args.runs):
            r = run_once(wl, args.first_seed + i, args.seconds, 0)
            runs[wl].append(r)
            print(f"# {wl} seed {r['seed']}: exit {r['exit']} correct {r['correct']} "
                  f"in {r['run_s']:.1f} s", file=sys.stderr, flush=True)
        if args.trace:
            traced[wl] = run_once(wl, args.first_seed, args.seconds, 1)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"machine": machine(), "seconds": args.seconds,
                                    "runs": runs, "traced": traced}, indent=1) + "\n")

    metrics = bench["end_to_end"] + [
        {"name": "failed_frac", "unit": "ratio", "better": "lower", "bound": 0.0}]
    print(f"{'workload':<15} {'metric':<18} {'unit':<6} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}  n")
    for wl, rs in runs.items():
        for m in metrics:
            vals = metric_values(rs, m["name"])
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            print(f"{wl:<15} {m['name']:<18} {m['unit']:<6} {med:>11.5g} {q1:>11.5g} "
                  f"{q3:>11.5g} {spread(vals):>7.3f} {m['bound']:>6}  {len(vals)}")
    for wl, r in traced.items():
        print_layers(wl, r["seed"], runs[wl], r)
    print(f"\nresults: {args.out}")
    failed = [r for rs in list(runs.values()) + [[t] for t in traced.values()] for r in rs
              if r["exit"] or not r["correct"]]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
