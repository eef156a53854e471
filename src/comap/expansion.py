"""Map growth path: response building, keyframe partitioning, redundancy
injection, upload integration, rigid coordinate alignment, and the
session-end ack."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Pose, euler_from_matrix
from .mapstore import GlobalMap, MapFrame, insert_frame
from .overlap import OverlapVerdict
from .spatial import KdTree
from .wire import EndAckMsg, KeyframeUploadMsg, OverlapResponseMsg, point_table

# Re-exported: the benchmark's tracer patches mapstore.state_digest by this name.
from .mapstore import state_digest  # noqa: F401


class DegenerateCorrespondencesError(ValueError):
    """Fewer than three pairs, or pairs that do not constrain the rotation."""


@dataclass
class Keyframe:
    """Device-side keyframe: pose, fov, and columnar point data."""

    keyframe_id: int
    pose: Pose
    fov: float
    landmark_ids: np.ndarray  # int64 (N,)
    positions: np.ndarray  # float64 (N, 3)
    descriptors: np.ndarray  # uint8 (N, 32)
    observation_counts: np.ndarray  # int64 (N,)

    def __post_init__(self):
        n = len(self.landmark_ids)
        self.landmark_ids = np.asarray(self.landmark_ids, dtype=np.int64).reshape(n)
        self.positions = np.asarray(self.positions, dtype=np.float64).reshape(n, 3)
        self.descriptors = np.asarray(self.descriptors, dtype=np.uint8).reshape(n, 32)
        self.observation_counts = np.asarray(
            self.observation_counts, dtype=np.int64
        ).reshape(n)

    def __len__(self) -> int:
        return len(self.landmark_ids)

    def subset(self, mask: np.ndarray) -> "Keyframe":
        return Keyframe(
            keyframe_id=self.keyframe_id,
            pose=self.pose,
            fov=self.fov,
            landmark_ids=self.landmark_ids[mask],
            positions=self.positions[mask],
            descriptors=self.descriptors[mask],
            observation_counts=self.observation_counts[mask],
        )

    @classmethod
    def empty(cls, keyframe_id: int, pose: Pose, fov: float) -> "Keyframe":
        return cls(
            keyframe_id,
            pose,
            fov,
            np.empty(0, dtype=np.int64),
            np.empty((0, 3)),
            np.empty((0, 32), dtype=np.uint8),
            np.empty(0, dtype=np.int64),
        )

    def to_upload_msg(self, client_id: int) -> KeyframeUploadMsg:
        points = point_table(len(self))
        points["id"] = self.landmark_ids
        points["position"] = self.positions
        points["descriptor"] = self.descriptors
        points["observation_count"] = np.minimum(self.observation_counts, 0xFFFF)
        return KeyframeUploadMsg(client_id, self.keyframe_id, self.pose, self.fov, points)


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid transform x -> R @ x + t."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)
        if np.max(np.abs(R.T @ R - np.eye(3))) > 1e-9:
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(R) - 1.0) > 1e-9:
            raise ValueError("rotation must be proper (det +1)")

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    @property
    def is_identity(self) -> bool:
        return np.array_equal(self.rotation, np.eye(3)) and not self.translation.any()

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation

    def apply_pose(self, p: Pose) -> Pose:
        pos = self.rotation @ p.position + self.translation
        roll, pitch, yaw = euler_from_matrix(self.rotation @ p.rotation_matrix())
        return Pose(pos[0], pos[1], pos[2], roll, pitch, yaw)

    def inverse(self) -> "RigidTransform":
        return RigidTransform(self.rotation.T, -(self.rotation.T @ self.translation))


def build_response(verdict: OverlapVerdict) -> OverlapResponseMsg:
    """Return the smaller sample class; ties go to the redundant list."""
    if verdict.redundant_count <= verdict.fresh_count:
        return OverlapResponseMsg(0, verdict.r, verdict.redundant_samples)
    return OverlapResponseMsg(1, verdict.r, verdict.fresh_samples)


def partition_keyframe(kf: Keyframe, resp: OverlapResponseMsg) -> Keyframe:
    """Drop the map points the response marks redundant.

    With a REDUNDANT list (status 0) every point within r of a listed sample
    is removed; with a FRESH list (status 1) only points within r of a listed
    sample survive; a point at exactly r is within it. Pose and fov are
    unchanged.
    """
    if resp.r <= 0:
        raise ValueError(f"response spacing must be positive, got {resp.r}")
    near = np.zeros(len(kf), dtype=bool)
    if len(resp.samples):
        near = KdTree(resp.samples).any_within(kf.positions, float(resp.r))
    keep = ~near if resp.status == 0 else near
    return kf.subset(keep)


def inject_redundancy(kf_pruned: Keyframe, kf_orig: Keyframe) -> Keyframe:
    """Re-add pruned points observed strictly more often than the keyframe mean.

    The mean is taken over all of the original keyframe's points; order of
    the original keyframe is preserved in the output.
    """
    if len(kf_orig) == 0:
        return kf_pruned
    kept = np.isin(kf_orig.landmark_ids, kf_pruned.landmark_ids)
    mean_count = float(kf_orig.observation_counts.mean())
    inject = ~kept & (kf_orig.observation_counts > mean_count)
    return kf_orig.subset(kept | inject)


def integrate_upload(
    map: GlobalMap, msg: KeyframeUploadMsg, transform: RigidTransform
) -> int:
    """Map an uploaded keyframe into the global frame and store it."""
    pose = transform.apply_pose(msg.pose) if not transform.is_identity else msg.pose
    positions = msg.points["position"].astype(np.float64)
    positions = transform.apply(positions) if not transform.is_identity else positions
    frame = MapFrame(
        frame_id=map.allocate_frame_id(),
        client_id=msg.client_id,
        keyframe_id=msg.keyframe_id,
        pose=pose,
        fov=msg.fov,
        ids=msg.points["id"],
    )
    return insert_frame(map, frame, positions, msg.points["descriptor"])


@dataclass
class AlignmentEstimate:
    transform: RigidTransform
    residual_rms: float
    pair_count: int


def estimate_alignment(pairs) -> AlignmentEstimate:
    """Closed-form least-squares rigid transform from (local, global) pairs.

    Cross-covariance SVD with a reflection guard; raises on fewer than three
    pairs or collinear geometry, which leave the rotation unconstrained.
    """
    pairs = list(pairs)
    if len(pairs) < 3:
        raise DegenerateCorrespondencesError(
            f"need at least 3 correspondences, got {len(pairs)}"
        )
    local = np.asarray([p[0] for p in pairs], dtype=np.float64)
    glob = np.asarray([p[1] for p in pairs], dtype=np.float64)
    lc, gc = local.mean(axis=0), glob.mean(axis=0)
    L, G = local - lc, glob - gc
    # Collinear local geometry leaves a rotation axis free.
    spread = np.linalg.svd(L, compute_uv=False)
    if spread[1] <= 1e-9 * max(spread[0], 1e-12):
        raise DegenerateCorrespondencesError("correspondences are collinear")
    H = L.T @ G
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    R = Vt.T @ np.diag([1.0, 1.0, d]) @ U.T
    t = gc - R @ lc
    transform = RigidTransform(R, t)
    residual = transform.apply(local) - glob
    rms = float(np.sqrt(np.mean(np.sum(residual**2, axis=1))))
    return AlignmentEstimate(transform, rms, len(pairs))


def on_session_end(map: GlobalMap, client_id: int) -> EndAckMsg:
    """The end-ack for ``client_id``: frame and point counts of the whole map.

    The server runs no session-end optimization, so the map is unchanged:
    ``elapsed_seconds`` is 0 and ``map_changed`` false.
    """
    return EndAckMsg(len(map.frames), len(map.points), elapsed_seconds=0.0)
