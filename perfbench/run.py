"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload fleet20 --seed 0 --seconds 10 --trace 0

Run from the root of a comap checkout; the engine is imported from its
``src/``. With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run and writes the
span file and a per-layer summary under ``perfbench/out/``. The correctness
gate runs on every run: a failed check prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
RECORDED_SEED = 0  # the seed whose decisions and bytes are recorded in EXPECTED


def import_engine():
    src = Path.cwd() / "src"
    if not (src / "comap" / "__init__.py").is_file():
        sys.exit(f"error: no comap sources under {src}; run from the root of a comap checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=RECORDED_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help=f"store this run's decisions and bytes as the seed-{RECORDED_SEED} "
                         "reference (only when protocol behaviour changes on purpose)")
    return ap.parse_args(argv)


def pin_to_one_cpu():
    """Run this process, and the threads it starts, on one CPU.

    With two CPUs, lanes2-tcp's four interpreter-lock-bound threads hand the
    lock between CPUs; per-pass kf_per_s then varied 53-79 within one
    process, against 87-91 on one CPU. The benchmark measures the engine,
    not that scheduling noise; README.md records the effect. The CPU is the
    highest-numbered one allowed: CPU 0 takes most device interrupts and
    timer work, which lanes2-tcp's frequent thread wake-ups then wait
    behind.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_to_one_cpu()
    import_engine()
    import harness
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.record and (args.seed != RECORDED_SEED or args.trace):
        sys.exit(f"error: --record needs --seed {RECORDED_SEED} --trace 0")

    expected_all = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    expected = expected_all.get(workload.name) if args.seed == RECORDED_SEED else None
    if args.seed == RECORDED_SEED and expected is None and not args.record:
        sys.exit(f"error: no recorded reference for {workload.name} in {EXPECTED}")

    if args.trace:
        tracer = tracing.Tracer()
        with tracer:
            run = harness.measure(
                workload, args.seed, args.seconds, OUT,
                after_prepare=lambda: tracer.keep_only("mapstore.save_snapshot"),
            )
    else:
        run = harness.measure(workload, args.seed, args.seconds, OUT)

    problems = harness.gate(workload, run, None if args.record else expected)
    e2e = harness.end_to_end(run)
    if args.trace:
        metrics = tracing.layer_metrics(tracer.spans, run, e2e["kf_per_s"])
        stem = f"{workload.name}-s{args.seed}"
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{stem}.jsonl")
        (OUT / f"layers-{stem}.json").write_text(json.dumps(
            {"workload": workload.name, "seed": args.seed, "passes": len(run.passes),
             "end_to_end_traced": e2e, "layers": tracing.summary(tracer.spans, run)},
            indent=1) + "\n")
    else:
        metrics = {name: (value, harness.UNITS[name]) for name, value in e2e.items()}
        del metrics["failed_frac"]  # reported as "failed" / "attempted"

    for line in problems:
        print(f"gate: {line}", file=sys.stderr)
    if args.record and not problems:
        first = run.passes[0]
        expected_all[workload.name] = {"decisions": first.digest, "user_bytes": first.user_bytes}
        EXPECTED.write_text(json.dumps(expected_all, indent=1, sort_keys=True) + "\n")
    print(
        f"# {workload.name} seed={args.seed} passes={len(run.passes)} "
        f"setups={len(run.setup_times)} keyframes={sum(p.keyframes for p in run.passes)} "
        f"failed_frac={e2e['failed_frac']:.4f}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
