"""Synthetic world: clustered landmark scenes, trajectory-driven keyframe
generation with a running observation counter, and scripted scene mutation
for staleness experiments.

A ``Scene`` lazily builds two tables that every observation of it shares: a
``KdTree`` over its landmark positions and a table of 32-byte landmark
descriptors, hashed the first time a landmark is observed. An observation
asks the index for the landmarks in the smallest ball that holds the cone
(``cone_candidate_ball``) and lets ``contains_many`` decide on those alone.
A device's running observation counts are an int64 array over the scene's
rows.
"""

from __future__ import annotations

import hashlib
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .expansion import Keyframe
from .geometry import (
    CameraIntrinsics,
    Pose,
    compute_fov,
    cone_candidate_ball,
    cone_from_fov,
    contains_many,
)
from .params import DEFAULT_PARAMS, ProtocolParams
from .spatial import KdTree


@dataclass
class Scene:
    """Present landmarks plus the cluster catalog used for mutations.

    The landmark index and the descriptor table are built on first use and
    belong to this scene alone; ``mutate_scene`` returns a scene without
    them. A lock guards their construction and the descriptor fill, so
    threads may observe one scene concurrently.
    """

    landmark_ids: np.ndarray
    positions: np.ndarray
    bounds: np.ndarray  # (2, 3): min corner, max corner
    seed: int
    _catalog: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    _index: KdTree | None = field(default=None, init=False, repr=False, compare=False)
    _descriptors: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _described: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.landmark_ids)

    def cluster_ids(self, label: str) -> np.ndarray:
        if label not in self._catalog:
            raise ValueError(f"unknown cluster {label!r}")
        return self._catalog[label][0]

    def index(self) -> KdTree:
        """The spatial index over ``positions``, built on first use."""
        with self._lock:
            if self._index is None:
                self._index = KdTree(self.positions)
            return self._index

    def descriptors(self, rows: np.ndarray) -> np.ndarray:
        """(len(rows), 32) descriptors of the landmarks at ``rows``; a row is
        hashed the first time any observation asks for it."""
        with self._lock:
            if self._descriptors is None:
                self._descriptors = np.zeros((len(self), 32), dtype=np.uint8)
                self._described = np.zeros(len(self), dtype=bool)
            new = rows[~self._described[rows]]
            if len(new):
                hashed = b"".join(landmark_descriptor(int(i)) for i in self.landmark_ids[new])
                self._descriptors[new] = np.frombuffer(hashed, np.uint8).reshape(-1, 32)
                self._described[new] = True
            return self._descriptors[rows]


def generate_scene(
    seed: int,
    bounds,
    landmark_count: int,
    cluster_spec: list[dict] | None = None,
) -> Scene:
    """Deterministic scene: clustered blobs plus a uniform background.

    ``cluster_spec`` entries are dicts with ``label``, ``count``, and
    optionally ``center`` and ``sigma``. Cluster landmarks count toward
    ``landmark_count``; the remainder is spread uniformly in ``bounds``.
    """
    if landmark_count < 1:
        raise ValueError("landmark_count must be >= 1")
    bounds = np.asarray(bounds, dtype=np.float64).reshape(2, 3)
    rng = np.random.default_rng(seed)
    ids_parts, pos_parts = [], []
    catalog: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    next_id = 1
    for spec in cluster_spec or []:
        label = spec["label"]
        count = int(spec["count"])
        sigma = float(spec.get("sigma", 1.5))
        if "center" in spec and spec["center"] is not None:
            center = np.asarray(spec["center"], dtype=np.float64)
        else:
            center = rng.uniform(bounds[0], bounds[1])
        pos = np.clip(center + rng.normal(0.0, sigma, (count, 3)), bounds[0], bounds[1])
        ids = np.arange(next_id, next_id + count, dtype=np.int64)
        next_id += count
        ids_parts.append(ids)
        pos_parts.append(pos)
        catalog[label] = (ids, pos)

    n_background = landmark_count - (next_id - 1)
    if n_background < 0:
        raise ValueError("cluster counts exceed landmark_count")
    if n_background:
        ids = np.arange(next_id, next_id + n_background, dtype=np.int64)
        ids_parts.append(ids)
        pos_parts.append(rng.uniform(bounds[0], bounds[1], (n_background, 3)))

    return Scene(
        landmark_ids=np.concatenate(ids_parts),
        positions=np.vstack(pos_parts),
        bounds=bounds,
        seed=seed,
        _catalog=catalog,
    )


def mutate_scene(scene: Scene, op: str, cluster_ref: str) -> Scene:
    """Remove or restore a named cluster; returns a new Scene."""
    ids, pos = scene._catalog.get(cluster_ref, (None, None))
    if ids is None:
        raise ValueError(f"unknown cluster {cluster_ref!r}")
    present = np.isin(scene.landmark_ids, ids)
    if op == "remove_cluster":
        if not present.any():
            raise ValueError(f"cluster {cluster_ref!r} is not present")
        keep = ~present
        new_ids = scene.landmark_ids[keep]
        new_pos = scene.positions[keep]
    elif op == "add_cluster":
        if present.any():
            raise ValueError(f"cluster {cluster_ref!r} is already present")
        new_ids = np.concatenate([scene.landmark_ids, ids])
        new_pos = np.vstack([scene.positions, pos])
        order = np.argsort(new_ids, kind="stable")
        new_ids, new_pos = new_ids[order], new_pos[order]
    else:
        raise ValueError(f"unknown mutation op {op!r}")
    return Scene(
        landmark_ids=new_ids,
        positions=new_pos,
        bounds=scene.bounds,
        seed=scene.seed,
        _catalog=dict(scene._catalog),
    )


def landmark_descriptor(landmark_id: int) -> bytes:
    """Stable 32-byte opaque descriptor for a landmark."""
    return hashlib.blake2b(int(landmark_id).to_bytes(8, "little"), digest_size=32).digest()


def observe(
    scene: Scene,
    pose: Pose,
    intrinsics: CameraIntrinsics,
    np_max: int,
    noise_sigma: float,
    rng: np.random.Generator,
    counters: np.ndarray,
    keyframe_id: int = 0,
    params: ProtocolParams = DEFAULT_PARAMS,
) -> Keyframe:
    """Manufacture a keyframe: in-cone landmarks, axis-nearest first.

    Candidates are the scene index's landmarks in the smallest ball that
    holds the cone, padded against rounding (and again by the index);
    ``contains_many`` decides on them alone, and the kept rows ascend.
    ``counters`` is the device's running per-landmark count, an int64 array
    over the scene's rows: selected landmarks bump it and carry the updated
    count. Descriptors come from the scene's table; positions get isotropic
    Gaussian noise.
    """
    fov = compute_fov(intrinsics)
    cone = cone_from_fov(pose, fov, params.h)
    (rows,) = scene.index().candidates_within(*cone_candidate_ball(cone))
    rows = np.sort(rows[contains_many(cone, scene.positions[rows])])
    ids = scene.landmark_ids[rows]
    pos = scene.positions[rows]
    if len(ids) > np_max:
        v = pos - pose.position
        norm = np.linalg.norm(v, axis=1)
        axial = v @ cone.axis
        with np.errstate(invalid="ignore", divide="ignore"):
            ang = np.arccos(np.clip(np.where(norm > 0, axial / norm, 1.0), -1.0, 1.0))
        pick = np.lexsort((ids, ang))[:np_max]
        pick.sort()
        rows, ids, pos = rows[pick], ids[pick], pos[pick]
    if noise_sigma > 0 and len(ids):
        pos = pos + rng.normal(0.0, noise_sigma, pos.shape)
    counters[rows] += 1
    return Keyframe(
        keyframe_id=keyframe_id,
        pose=pose,
        fov=fov,
        landmark_ids=ids,
        positions=np.asarray(pos, dtype=np.float64),
        descriptors=scene.descriptors(rows),
        observation_counts=counters[rows],
    )


@dataclass
class TrajectorySpec:
    """Piecewise-linear path with per-waypoint headings.

    Waypoints are (x, y, z, heading); headings are treated as continuous
    (unwrapped), so a 2-pi spin is expressed as heading += 2*pi. A keyframe
    triggers whenever accumulated translation reaches ``d_kf`` or
    accumulated rotation reaches ``theta_kf``.

    The default pitch of pi/2 tips the camera-forward axis (+z of the
    camera frame) into the horizontal plane, so heading steers it.
    """

    waypoints: list[tuple[float, float, float, float]]
    d_kf: float = 2.0
    theta_kf: float = math.radians(20.0)
    pitch: float = math.pi / 2

    def __post_init__(self):
        if len(self.waypoints) < 2:
            raise ValueError("trajectory needs at least 2 waypoints")
        if self.d_kf <= 0 or self.theta_kf <= 0:
            raise ValueError("keyframe triggers must be positive")

    def length(self) -> float:
        w = np.asarray([p[:3] for p in self.waypoints])
        return float(np.sum(np.linalg.norm(np.diff(w, axis=0), axis=1)))


def trajectory_poses(spec: TrajectorySpec):
    """Keyframe poses along the path, starting with the first waypoint."""
    x, y, z, hd = spec.waypoints[0]
    poses = [Pose(x, y, z, 0.0, spec.pitch, hd)]
    acc_d = acc_r = 0.0
    eps = 1e-12
    for (x0, y0, z0, h0), (x1, y1, z1, h1) in zip(spec.waypoints, spec.waypoints[1:]):
        p0 = np.array([x0, y0, z0])
        p1 = np.array([x1, y1, z1])
        seg_len = float(np.linalg.norm(p1 - p0))
        seg_rot = abs(h1 - h0)
        s = 0.0
        while True:
            t_d = (spec.d_kf - acc_d) / seg_len if seg_len > 0 else math.inf
            t_r = (spec.theta_kf - acc_r) / seg_rot if seg_rot > 0 else math.inf
            t = min(t_d, t_r)
            if t is math.inf or s + t > 1.0 + eps:
                acc_d += (1.0 - s) * seg_len
                acc_r += (1.0 - s) * seg_rot
                break
            s = min(s + t, 1.0)
            pos = p0 + s * (p1 - p0)
            heading = h0 + s * (h1 - h0)
            poses.append(Pose(pos[0], pos[1], pos[2], 0.0, spec.pitch, heading))
            acc_d = acc_r = 0.0
            if s >= 1.0:
                break
    return poses


def generate_keyframes(
    spec: TrajectorySpec,
    scene: Scene,
    intrinsics: CameraIntrinsics,
    np_max: int = 300,
    noise_sigma: float = 0.05,
    seed: int = 0,
    params: ProtocolParams = DEFAULT_PARAMS,
):
    """Stream of observed keyframes along the trajectory (deterministic per seed)."""
    rng = np.random.default_rng(seed)
    counters = np.zeros(len(scene), dtype=np.int64)
    for i, pose in enumerate(trajectory_poses(spec)):
        yield observe(
            scene, pose, intrinsics, np_max, noise_sigma, rng, counters,
            keyframe_id=i, params=params,
        )
