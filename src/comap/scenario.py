"""Scenario execution: configuration files, multi-user runs, and the metrics
and report tables derived from them."""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
import yaml
from scipy import stats as scipy_stats

from .geometry import CameraIntrinsics
from .mapstore import GlobalMap
from .params import CAMERA_PRESETS, FULL_KEYFRAME_BYTES, ProtocolParams
from .runtime import (
    ClientConfig,
    ClientResult,
    InProcTransport,
    MapServer,
    TcpMapServer,
    TcpTransport,
    TokenBucket,
    client_pipeline,
)
from .sim import Scene, TrajectorySpec, generate_keyframes, generate_scene, mutate_scene


@dataclass
class UserSpec:
    client_id: int
    intrinsics: CameraIntrinsics
    trajectory: TrajectorySpec
    role: str = "mapper"  # or "follower"
    alpha: float | None = None
    mode: str | None = None  # overrides the scenario mode
    scene_ops: list = field(default_factory=list)  # [{op, cluster}] applied before this user


@dataclass
class ScenarioConfig:
    seed: int
    scene_seed: int
    bounds: np.ndarray
    landmark_count: int
    clusters: list = field(default_factory=list)
    users: list[UserSpec] = field(default_factory=list)
    params: ProtocolParams = field(default_factory=ProtocolParams)
    mode: str = "mapxx"  # or "vanilla"
    transport: str = "inproc"  # or "tcp"
    bandwidth_cap: float | None = None
    noise_sigma: float = 0.05
    concurrent: bool = False
    auto_align: bool = False

    def __post_init__(self):
        if self.mode not in ("mapxx", "vanilla"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.transport not in ("inproc", "tcp"):
            raise ValueError(f"unknown transport {self.transport!r}")


def _intrinsics_from(entry: dict) -> CameraIntrinsics:
    if "preset" in entry:
        preset = entry["preset"]
        if preset not in CAMERA_PRESETS:
            raise ValueError(f"unknown camera preset {preset!r}")
        return CAMERA_PRESETS[preset]
    fx, fy, cx, cy = entry["intrinsics"]
    return CameraIntrinsics(fx, fy, cx, cy)


def load_config(path) -> ScenarioConfig:
    """Parse a scenario YAML file (schema in docs/formats.md)."""
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> ScenarioConfig:
    scene = raw.get("scene", {})
    proto = dict(raw.get("protocol", {}))
    sim = raw.get("sim", {})
    params = ProtocolParams(**proto)
    users = []
    for u in raw.get("users", []):
        users.append(
            UserSpec(
                client_id=int(u["client_id"]),
                intrinsics=_intrinsics_from(u),
                trajectory=TrajectorySpec(
                    waypoints=[tuple(w) for w in u["waypoints"]],
                    d_kf=float(u.get("d_kf", sim.get("d_kf", 2.0))),
                    theta_kf=math.radians(float(u.get("theta_kf_deg", sim.get("theta_kf_deg", 20.0)))),
                ),
                role=u.get("role", "mapper"),
                alpha=u.get("alpha"),
                mode=u.get("mode"),
                scene_ops=u.get("scene_ops", []),
            )
        )
    return ScenarioConfig(
        seed=int(raw.get("seed", 0)),
        scene_seed=int(scene.get("seed", raw.get("seed", 0))),
        bounds=np.asarray(scene.get("bounds", [[-50, -50, -20], [50, 50, 20]]), dtype=np.float64),
        landmark_count=int(scene.get("landmark_count", 5000)),
        clusters=scene.get("clusters", []),
        users=users,
        params=params,
        mode=raw.get("mode", "mapxx"),
        transport=raw.get("transport", "inproc"),
        bandwidth_cap=raw.get("bandwidth_cap"),
        noise_sigma=float(sim.get("noise_sigma", 0.05)),
        concurrent=bool(raw.get("concurrent", False)),
        auto_align=bool(raw.get("auto_align", False)),
    )


@dataclass
class UserMetrics:
    client_id: int
    role: str
    mode: str
    keyframes: int
    uploads: int
    upload_bytes: dict
    download_bytes: dict
    keyframe_payload_bytes: int
    total_upload_bytes: int
    total_download_bytes: int
    freshness: float
    map_requests: int
    update_events: int
    aborted: bool
    transport_sent: int
    transport_received: int

    @classmethod
    def from_result(cls, spec: UserSpec, mode: str, res: ClientResult, transport) -> "UserMetrics":
        return cls(
            client_id=spec.client_id,
            role=spec.role,
            mode=mode,
            keyframes=res.keyframes,
            uploads=res.uploads,
            upload_bytes=dict(sorted(res.stats.upload_bytes.items())),
            download_bytes=dict(sorted(res.stats.download_bytes.items())),
            keyframe_payload_bytes=res.keyframe_payload_bytes,
            total_upload_bytes=res.stats.total_upload,
            total_download_bytes=res.stats.total_download,
            freshness=res.freshness,
            map_requests=res.map_requests,
            update_events=len(res.update_events),
            aborted=res.aborted,
            transport_sent=transport.sent_bytes,
            transport_received=transport.received_bytes,
        )


@dataclass
class Metrics:
    """Reconciled per-user and server-side counters for one scenario run."""

    mode: str
    seed: int
    users: list[UserMetrics]
    server_frames: int
    server_points: int
    server_memory_bytes: int
    server_ingress: int
    server_egress: int
    latency_percentiles: dict
    audit_violations: list
    traces: dict = field(default_factory=dict)
    update_events: dict = field(default_factory=dict)

    @property
    def total_upload_bytes(self) -> int:
        return sum(u.total_upload_bytes for u in self.users)

    @property
    def total_keyframe_payload_bytes(self) -> int:
        return sum(u.keyframe_payload_bytes for u in self.users)

    def user(self, client_id: int) -> UserMetrics:
        for u in self.users:
            if u.client_id == client_id:
                return u
        raise KeyError(client_id)

    def to_dict(self, include_traces: bool = False) -> dict:
        """Serializable form, free of wall-clock data, so that fixed-seed runs
        stay byte-identical; latency goes to ``write_telemetry_json``."""
        out = {
            "mode": self.mode,
            "seed": self.seed,
            "users": [vars(u).copy() for u in self.users],
            "server": {
                "frames": self.server_frames,
                "points": self.server_points,
                "memory_bytes": self.server_memory_bytes,
                "ingress": self.server_ingress,
                "egress": self.server_egress,
            },
            "audit_violations": list(self.audit_violations),
        }
        if include_traces:
            out["traces"] = self.traces
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "Metrics":
        """The metrics ``to_dict`` wrote, without traces or latencies."""
        server = raw["server"]
        return cls(
            mode=raw["mode"],
            seed=raw["seed"],
            users=[UserMetrics(**u) for u in raw["users"]],
            server_frames=server["frames"],
            server_points=server["points"],
            server_memory_bytes=server["memory_bytes"],
            server_ingress=server["ingress"],
            server_egress=server["egress"],
            latency_percentiles={},
            audit_violations=raw.get("audit_violations", []),
        )


def drive_user(cfg: ScenarioConfig, spec: UserSpec, scene: Scene, transport) -> ClientResult:
    """Run one user's keyframe stream over ``transport`` through a client
    pipeline; the stream's noise seed derives from the scenario seed and the
    client id."""
    stream = generate_keyframes(
        spec.trajectory,
        scene,
        spec.intrinsics,
        np_max=cfg.params.np_max,
        noise_sigma=cfg.noise_sigma,
        seed=cfg.seed * 7919 + spec.client_id,
        params=cfg.params,
    )
    client_cfg = ClientConfig(
        client_id=spec.client_id,
        intrinsics=spec.intrinsics,
        mode=spec.mode or cfg.mode,
        params=cfg.params,
    )
    return client_pipeline(client_cfg, stream, transport)


def run_scenario(cfg: ScenarioConfig) -> Metrics:
    """Execute a scenario: one server, one client pipeline per user.

    Users run sequentially in config order unless ``concurrent`` is set;
    then every user runs to its end, and the exception of the first failed
    user in config order is re-raised. Vanilla mode uploads every keyframe
    with no overlap protocol.
    """
    scene = generate_scene(cfg.scene_seed, cfg.bounds, cfg.landmark_count, cfg.clusters)
    server = MapServer(
        GlobalMap(np_max=cfg.params.np_max),
        params=cfg.params,
        seed=cfg.seed,
        auto_align=cfg.auto_align,
    )
    for u in cfg.users:
        if u.alpha is not None:
            server.alpha_overrides[u.client_id] = u.alpha

    tcp_front = None
    if cfg.transport == "tcp":
        tcp_front = TcpMapServer(server).start()
    bucket = TokenBucket(cfg.bandwidth_cap) if cfg.bandwidth_cap else None

    def make_transport():
        if cfg.transport == "tcp":
            t = TcpTransport(tcp_front.addr)
        else:
            t = InProcTransport(server)
        if bucket is not None:
            t.bucket = bucket
        return t

    results: dict[int, tuple[UserSpec, ClientResult, object]] = {}

    def run_user(spec: UserSpec, user_scene: Scene):
        transport = make_transport()
        try:
            res = drive_user(cfg, spec, user_scene, transport)
        finally:
            transport.close()
        results[spec.client_id] = (spec, res, transport)

    try:
        if cfg.concurrent:
            # Scene mutations are not supported concurrently; all users see
            # the same world.
            with ThreadPoolExecutor(max_workers=max(1, len(cfg.users))) as pool:
                futures = [pool.submit(run_user, spec, scene) for spec in cfg.users]
            for f in futures:
                f.result()
        else:
            current = scene
            for spec in cfg.users:
                for op in spec.scene_ops:
                    current = mutate_scene(current, op["op"], op["cluster"])
                run_user(spec, current)
    finally:
        if tcp_front is not None:
            tcp_front.stop()

    users = []
    traces = {}
    update_events = {}
    for spec in cfg.users:
        spec_, res, transport = results[spec.client_id]
        users.append(UserMetrics.from_result(spec_, spec_.mode or cfg.mode, res, transport))
        traces[spec.client_id] = res.trace
        if res.update_events:
            update_events[spec.client_id] = res.update_events

    return Metrics(
        mode=cfg.mode,
        seed=cfg.seed,
        users=users,
        server_frames=len(server.map.frames),
        server_points=len(server.map.points),
        server_memory_bytes=server.map.memory_estimate_bytes(),
        server_ingress=server.ingress_bytes,
        server_egress=server.egress_bytes,
        latency_percentiles=server.latency_percentiles(),
        audit_violations=server.audit(),
        traces=traces,
        update_events=update_events,
    )


def vanilla_twin(cfg: ScenarioConfig) -> ScenarioConfig:
    """The same scenario with every user forced onto the vanilla path."""
    users = [replace(u, mode="vanilla", scene_ops=list(u.scene_ops)) for u in cfg.users]
    return replace(cfg, users=users, mode="vanilla")


def freshness_traffic_report(metrics: Metrics, vanilla: Metrics | None = None) -> dict:
    """Per-user freshness vs upload table plus their rank correlation."""
    rows = []
    for u in metrics.users:
        kb_per_kf = (u.keyframe_payload_bytes / u.keyframes / 1024.0) if u.keyframes else 0.0
        row = {
            "client_id": u.client_id,
            "role": u.role,
            "freshness": round(u.freshness, 6),
            "upload_kb_per_keyframe": round(kb_per_kf, 3),
            "keyframe_payload_kb": round(u.keyframe_payload_bytes / 1024.0, 3),
            "total_upload_kb": round(u.total_upload_bytes / 1024.0, 3),
            "map_requests": u.map_requests,
            "vanilla_equivalent_kb": round(u.keyframes * FULL_KEYFRAME_BYTES / 1024.0, 3),
        }
        if vanilla is not None:
            v = vanilla.user(u.client_id)
            row["vanilla_payload_kb"] = round(v.keyframe_payload_bytes / 1024.0, 3)
        rows.append(row)

    fresh = [r["freshness"] for r in rows]
    upload = [r["keyframe_payload_kb"] for r in rows]
    if len(rows) >= 2 and len(set(fresh)) > 1 and len(set(upload)) > 1:
        rho = float(scipy_stats.spearmanr(fresh, upload).statistic)
    else:
        rho = float("nan")
    report = {"rows": rows, "spearman_freshness_upload": rho}
    if vanilla is not None:
        total_v = vanilla.total_keyframe_payload_bytes
        total_m = metrics.total_keyframe_payload_bytes
        report["payload_reduction"] = 1.0 - (total_m / total_v) if total_v else 0.0
        report["upload_reduction"] = (
            1.0 - (metrics.total_upload_bytes / vanilla.total_upload_bytes)
            if vanilla.total_upload_bytes
            else 0.0
        )
    return report


def render_report(report: dict) -> str:
    out = io.StringIO()
    cols = list(report["rows"][0].keys()) if report["rows"] else []
    if cols:
        widths = {c: max(len(c), max(len(str(r[c])) for r in report["rows"])) for c in cols}
        out.write("  ".join(c.ljust(widths[c]) for c in cols) + "\n")
        for r in report["rows"]:
            out.write("  ".join(str(r[c]).ljust(widths[c]) for c in cols) + "\n")
    rho = report.get("spearman_freshness_upload")
    if rho is not None and not math.isnan(rho):
        out.write(f"\nspearman(freshness, upload) = {rho:.4f}\n")
    if "payload_reduction" in report:
        out.write(f"keyframe payload reduction vs vanilla = {report['payload_reduction']:.1%}\n")
        out.write(f"total upload reduction vs vanilla = {report['upload_reduction']:.1%}\n")
    return out.getvalue()


def write_metrics_csv(metrics: Metrics, path):
    """One row per user; the machine-readable half of the metrics output."""
    fields = [
        "client_id", "role", "mode", "keyframes", "uploads", "keyframe_payload_bytes",
        "total_upload_bytes", "total_download_bytes", "freshness", "map_requests",
        "update_events", "aborted", "transport_sent", "transport_received",
    ]
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fields)
        w.writeheader()
        for u in metrics.users:
            w.writerow({k: getattr(u, k) for k in fields})


def _write_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_metrics_json(metrics: Metrics, path, include_traces: bool = False):
    _write_json(metrics.to_dict(include_traces=include_traces), path)


def write_telemetry_json(metrics: Metrics, path):
    """The run's wall-clock measurements: per-message server latency."""
    _write_json({"server": {"latency_percentiles": metrics.latency_percentiles}}, path)


def write_trace_jsonl(trace: list, path):
    """Line-delimited structured event log for one client."""
    with open(path, "w") as fh:
        for ev in trace:
            fh.write(json.dumps(ev, sort_keys=True) + "\n")


def load_metrics_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
