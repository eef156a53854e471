"""Compare two result sets written by ``suite.py``.

    python3 perfbench/compare.py BEFORE.json AFTER.json

For each workload and end-to-end metric: the median and quartiles of each
side, the change of the medians, and a verdict. A metric is "unresolved"
when either side's spread (interquartile range over median) exceeds the
metric's bound from BENCHMARK.json, unless every run of one side beats every
run of the other; "worse" when the median worsened by more than the bound;
"better" when it improved by more than the bound; else "same".
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def metric_values(runs: list[dict], name: str) -> list[float]:
    out = []
    for r in runs:
        if name == "failed_frac":
            out.append(r["failed"] / max(r["attempted"], 1))
        elif name in r["metrics"]:
            out.append(r["metrics"][name]["value"])
    return out


def verdict(before: list[float], after: list[float], bound: float, better: str) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b_med, a_med = statistics.median(before), statistics.median(after)
    change = sign * (a_med - b_med) / abs(b_med) if b_med else 0.0
    if spread(before) > bound or spread(after) > bound:
        if min(sign * a for a in after) > max(sign * b for b in before):
            return "better"
        if max(sign * a for a in after) < min(sign * b for b in before):
            return "worse"
        return "unresolved"
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "same"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("before")
    ap.add_argument("after")
    args = ap.parse_args(argv)
    bench = load_bench()
    sides = [json.loads(Path(p).read_text())["runs"] for p in (args.before, args.after)]
    worse = 0
    header = f"{'workload':<15} {'metric':<18} {'before q1/med/q3':>28} {'after q1/med/q3':>28} " \
             f"{'delta':>8}  verdict"
    print(header)
    for wl in bench["workloads"]:
        name = wl["name"]
        before, after = (s.get(name, []) for s in sides)
        if not before or not after:
            print(f"{name:<15} (missing on one side)")
            continue
        for m in bench["end_to_end"]:
            b, a = metric_values(before, m["name"]), metric_values(after, m["name"])
            v = verdict(b, a, m["bound"], m["better"])
            worse += v == "worse"
            bq, aq = quartiles(b), quartiles(a)
            delta = (aq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
            print(f"{name:<15} {m['name']:<18} "
                  f"{'/'.join(f'{x:.4g}' for x in bq):>28} {'/'.join(f'{x:.4g}' for x in aq):>28} "
                  f"{delta:>+8.1%}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
