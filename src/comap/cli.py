"""Command-line entry points: simulate, serve, client, report."""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from pathlib import Path

import yaml

from .mapstore import GlobalMap, SnapshotError, load_snapshot, save_snapshot
from .runtime import MapServer, TcpMapServer, TcpTransport, throttle
from .scenario import (
    Metrics,
    config_from_dict,
    drive_user,
    freshness_traffic_report,
    load_config,
    load_metrics_json,
    render_report,
    run_scenario,
    vanilla_twin,
    write_metrics_csv,
    write_metrics_json,
    write_telemetry_json,
    write_trace_jsonl,
)
from .sim import generate_scene


def _parse_addr(addr: str) -> tuple[str, int]:
    host, _, port = addr.rpartition(":")
    return host or "127.0.0.1", int(port)


def _apply_overrides(cfg, args):
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.scene_seed = args.seed
    if getattr(args, "alpha", None) is not None:
        for u in cfg.users:
            u.alpha = args.alpha
    if getattr(args, "bandwidth_cap", None) is not None:
        cfg.bandwidth_cap = args.bandwidth_cap
    return cfg


def cmd_simulate(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    metrics = run_scenario(cfg)
    write_metrics_csv(metrics, out / f"metrics_{cfg.mode}.csv")
    write_metrics_json(metrics, out / f"metrics_{cfg.mode}.json")
    write_telemetry_json(metrics, out / f"telemetry_{cfg.mode}.json")
    for client_id, trace in metrics.traces.items():
        write_trace_jsonl(trace, out / f"trace_{cfg.mode}_{client_id}.jsonl")
    vanilla = None
    if args.with_vanilla and cfg.mode != "vanilla":
        vanilla = run_scenario(vanilla_twin(cfg))
        write_metrics_csv(vanilla, out / "metrics_vanilla.csv")
        write_metrics_json(vanilla, out / "metrics_vanilla.json")
        write_telemetry_json(vanilla, out / "telemetry_vanilla.json")
    if metrics.audit_violations:
        print("map audit FAILED:", file=sys.stderr)
        for v in metrics.audit_violations:
            print(f"  {v}", file=sys.stderr)
        return 1
    print(render_report(freshness_traffic_report(metrics, vanilla)))
    print(f"metrics written to {out}")
    return 0


def cmd_serve(args) -> int:
    host, port = _parse_addr(args.addr)
    if args.snapshot and Path(args.snapshot).exists():
        try:
            gmap = load_snapshot(args.snapshot)
        except SnapshotError as e:
            print(f"cannot load snapshot {args.snapshot}: {e}", file=sys.stderr)
            return 2
        print(f"loaded snapshot: {len(gmap.frames)} frames, {len(gmap.points)} points")
    else:
        gmap = GlobalMap()
    server = MapServer(gmap, seed=args.seed or 0)
    front = TcpMapServer(server, host, port).start()
    # SIGTERM, the default signal of `kill`, stops the loop as cleanly as
    # SIGINT does. Only the main thread may set a handler.
    stop = threading.Event()
    on_main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, lambda *_: stop.set()) if on_main else None
    print(f"serving on {front.addr[0]}:{front.addr[1]}")
    try:
        while not stop.wait(0.1):
            if args.max_sessions:
                if server.ended_sessions >= args.max_sessions:
                    break
    except KeyboardInterrupt:
        pass
    finally:
        front.stop()
        if args.snapshot:
            save_snapshot(gmap, args.snapshot)
            print(f"snapshot saved to {args.snapshot}")
        if on_main:
            signal.signal(signal.SIGTERM, previous)
    return 0


def cmd_client(args) -> int:
    with open(args.trajectory) as fh:
        raw = yaml.safe_load(fh)
    cfg = _apply_overrides(config_from_dict(raw), args)
    if len(cfg.users) != 1:
        print("trajectory file must describe exactly one user", file=sys.stderr)
        return 1
    spec = cfg.users[0]
    if args.mode:
        spec.mode = args.mode
    scene = generate_scene(cfg.scene_seed, cfg.bounds, cfg.landmark_count, cfg.clusters)
    transport = TcpTransport(_parse_addr(args.addr))
    if cfg.bandwidth_cap:
        throttle(transport, cfg.bandwidth_cap)
    result = drive_user(cfg, spec, scene, transport)
    transport.close()
    if args.trace:
        write_trace_jsonl(result.trace, args.trace)
    print(
        f"client {result.client_id}: {result.keyframes} keyframes, "
        f"{result.uploads} uploads, freshness {result.freshness:.3f}, "
        f"{result.stats.total_upload} bytes up / {result.stats.total_download} down"
    )
    return 1 if result.aborted else 0


def cmd_report(args) -> int:
    loaded = [Metrics.from_dict(load_metrics_json(p)) for p in args.metrics]
    vanilla = next((m for m in loaded if m.mode == "vanilla"), None)
    primary = next((m for m in loaded if m.mode != "vanilla"), loaded[0])
    print(render_report(freshness_traffic_report(primary, vanilla)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="comap",
        description="Participatory map-sharing protocol engine and simulator",
    )
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario config and write metrics")
    sim.add_argument("config")
    sim.add_argument("--out", default="out", help="output directory")
    sim.add_argument("--alpha", type=float, default=None)
    sim.add_argument("--bandwidth-cap", type=float, default=None, dest="bandwidth_cap")
    sim.add_argument(
        "--with-vanilla",
        action="store_true",
        help="also run the vanilla twin for baseline comparison",
    )
    sim.set_defaults(func=cmd_simulate)

    srv = sub.add_parser("serve", help="serve a global map over TCP")
    srv.add_argument("addr", help="host:port")
    srv.add_argument("--snapshot", default=None, help="map snapshot file to load/save")
    srv.add_argument("--max-sessions", type=int, default=0, help="exit after N sessions end")
    srv.set_defaults(func=cmd_serve)

    cli = sub.add_parser("client", help="drive one client against a server")
    cli.add_argument("addr", help="host:port")
    cli.add_argument("trajectory", help="single-user scenario YAML")
    cli.add_argument("--mode", choices=["mapxx", "vanilla"], default=None)
    cli.add_argument("--bandwidth-cap", type=float, default=None, dest="bandwidth_cap")
    cli.add_argument("--trace", default=None, help="write the decision trace here")
    cli.set_defaults(func=cmd_client)

    rep = sub.add_parser("report", help="tables from metrics JSON files")
    rep.add_argument("metrics", nargs="+")
    rep.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
