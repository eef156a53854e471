"""Geometric kernel: poses, camera intrinsics, view cones and cone sampling.

Everything here is a pure function over immutable inputs. Points are plain
numpy arrays of shape (3,) or (N, 3) in the global metric frame.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Keeps tan(fov/2) finite when an oversharing factor pushes the cone open.
FOV_CLAMP = math.pi - 1e-6

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def _wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    a = math.fmod(a, 2.0 * math.pi)
    if a <= -math.pi:
        a += 2.0 * math.pi
    elif a > math.pi:
        a -= 2.0 * math.pi
    return a


@dataclass(frozen=True)
class Pose:
    """6-DoF camera pose: position in meters, intrinsic Z-Y-X rotation in radians."""

    x: float
    y: float
    z: float
    roll: float = 0.0
    pitch: float = 0.0
    yaw: float = 0.0

    def __post_init__(self):
        vals = (self.x, self.y, self.z, self.roll, self.pitch, self.yaw)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"pose has non-finite fields: {vals}")
        object.__setattr__(self, "roll", _wrap_angle(self.roll))
        object.__setattr__(self, "pitch", _wrap_angle(self.pitch))
        object.__setattr__(self, "yaw", _wrap_angle(self.yaw))

    @classmethod
    def stored(cls, x: float, y: float, z: float, roll: float, pitch: float, yaw: float) -> "Pose":
        """A pose from fields the wire decoder already checked, built
        without checking them again."""
        pose = object.__new__(cls)
        pose.__dict__.update(x=x, y=y, z=z, roll=roll, pitch=pitch, yaw=yaw)
        return pose

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float64)

    def rotation_matrix(self) -> np.ndarray:
        """World-from-camera rotation, R = Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
        cr, sr = math.cos(self.roll), math.sin(self.roll)
        cp, sp = math.cos(self.pitch), math.sin(self.pitch)
        cy, sy = math.cos(self.yaw), math.sin(self.yaw)
        return np.array(
            [
                [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
                [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
                [-sp, cp * sr, cp * cr],
            ],
            dtype=np.float64,
        )

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.x, self.y, self.z, self.roll, self.pitch, self.yaw], dtype=np.float64
        )


def euler_from_matrix(R: np.ndarray) -> tuple[float, float, float]:
    """(roll, pitch, yaw) such that Rz(yaw)@Ry(pitch)@Rx(roll) == R."""
    pitch = math.asin(max(-1.0, min(1.0, -float(R[2, 0]))))
    if abs(R[2, 0]) < 1.0 - 1e-12:
        roll = math.atan2(float(R[2, 1]), float(R[2, 2]))
        yaw = math.atan2(float(R[1, 0]), float(R[0, 0]))
    else:
        # Gimbal lock: yaw and roll are coupled, pin roll to zero.
        roll = 0.0
        yaw = math.atan2(-float(R[0, 1]), float(R[1, 1]))
    return roll, pitch, yaw


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        vals = (self.fx, self.fy, self.cx, self.cy)
        if not all(math.isfinite(v) and v > 0 for v in vals):
            raise ValueError(f"invalid intrinsics: {vals}")


@dataclass(frozen=True)
class ViewCone:
    """Right circular cone: apex at the camera, axis along the optical axis.

    ``h`` is the height along the axis in meters, ``fov`` the full apex
    angle in radians.
    """

    apex_pose: Pose
    h: float
    fov: float

    def __post_init__(self):
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"cone height must be positive, got {self.h}")
        if not (0.0 < self.fov < math.pi):
            raise ValueError(f"cone fov must be in (0, pi), got {self.fov}")

    @functools.cached_property
    def axis(self) -> np.ndarray:
        """The optical axis, computed once per cone and shared, so read-only."""
        axis = optical_axis(self.apex_pose)
        axis.flags.writeable = False
        return axis

    def volume(self) -> float:
        return (math.pi / 3.0) * self.h**3 * math.tan(self.fov / 2.0) ** 2


def compute_fov(intr: CameraIntrinsics) -> float:
    """Full field-of-view angle implied by the intrinsics.

    Takes the wider of the horizontal and vertical opening angles,
    max(2*atan(cx/fx), 2*atan(cy/fy)).
    """
    return max(2.0 * math.atan(intr.cx / intr.fx), 2.0 * math.atan(intr.cy / intr.fy))


def optical_axis(p: Pose) -> np.ndarray:
    """Unit camera-forward direction (+z of the camera frame) in world coordinates."""
    return p.rotation_matrix() @ np.array([0.0, 0.0, 1.0])


def cone_from_fov(p: Pose, fov: float, h: float, alpha: float = 1.0) -> ViewCone:
    """Cone for a pose whose fov is already known, optionally widened by ``alpha``."""
    if alpha < 1.0:
        raise ValueError(f"oversharing factor must be >= 1, got {alpha}")
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"cone height must be positive, got {h}")
    return ViewCone(apex_pose=p, h=h, fov=min(alpha * fov, FOV_CLAMP))


def make_view_cone(
    p: Pose, intr: CameraIntrinsics, h: float, alpha: float = 1.0
) -> ViewCone:
    """View cone of a camera at ``p``; ``alpha > 1`` widens it for oversharing."""
    return cone_from_fov(p, compute_fov(intr), h, alpha)


def contains(cone: ViewCone, q) -> bool:
    """Whether a single point lies inside the cone (apex and boundary inclusive)."""
    v = np.asarray(q, dtype=np.float64) - cone.apex_pose.position
    axial = float(v @ cone.axis)
    if axial < 0.0 or axial > cone.h:
        return False
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return True
    # angle(v, axis) <= fov/2  <=>  axial >= |v| * cos(fov/2)
    return axial >= norm * math.cos(cone.fov / 2.0)


def contains_many(cone: ViewCone, pts: np.ndarray) -> np.ndarray:
    """Vectorized ``contains`` over an (N, 3) array; returns a boolean mask."""
    pts = np.asarray(pts, dtype=np.float64)
    if pts.size == 0:
        return np.zeros(0, dtype=bool)
    v = pts - cone.apex_pose.position
    axial = v @ cone.axis
    norm = np.linalg.norm(v, axis=1)
    inside = (axial >= 0.0) & (axial <= cone.h)
    inside &= axial >= norm * math.cos(cone.fov / 2.0)
    inside |= norm == 0.0
    return inside


def cone_ball(cone: ViewCone) -> tuple[np.ndarray, float]:
    """The smallest ball that holds the cone, as ``(centre, radius)``.

    Below a 45° half-angle the ball passes through the apex and the base's
    rim, its centre h / (2 cos²(fov/2)) down the axis; a wider cone's ball
    is centred on the base, through the rim, and holds the apex too. The
    radius is never above h / cos(fov/2), the apex's distance to the rim.
    """
    half = cone.fov / 2.0
    if half < math.pi / 4.0:
        down = radius = cone.h / (2.0 * math.cos(half) ** 2)
    else:
        down, radius = cone.h, cone.h * math.tan(half)
    return cone.apex_pose.position + down * cone.axis, radius


def cone_candidate_ball(cone: ViewCone) -> tuple[np.ndarray, float]:
    """``cone_ball`` with its radius padded by 1e-9 × (|centre| + radius), so
    that rounding in the centre cannot drop a point ``contains_many``
    accepts: an index query over this ball returns a superset of the
    cone's points."""
    centre, radius = cone_ball(cone)
    return centre, radius + 1e-9 * (float(np.linalg.norm(centre)) + radius)


def sample_spacing(cone: ViewCone, k: int) -> float:
    """Mean adjacent-sample spacing for ``k`` uniform samples: (V/k)^(1/3)."""
    return (cone.volume() / k) ** (1.0 / 3.0)


def sample_cone(cone: ViewCone, k: int, seed: int) -> tuple[np.ndarray, float]:
    """Deterministic near-uniform samples inside the cone.

    The cone is sliced into axial layers of equal volume; each layer gets a
    jittered sunflower-spiral arrangement in its cross-section, with the
    pairing between axial and radial order shuffled to avoid streaks.
    Returns ``(points, r)`` where points is (k, 3) and ``r`` is the mean
    spacing ``(V/k)^(1/3)``.

    The samples go on the wire (overlap responses list them, and devices
    partition against them), so the random draws are a wire contract: one
    generator seeded with ``seed``, and per layer, in layer order,
    ``random(n)`` (axial jitter), ``permutation(n)`` (spiral slot),
    ``random(n)`` (radial jitter), ``random(n)`` (angular jitter). Only the
    arithmetic after the draws is batched over all layers.
    """
    if k < 1:
        raise ValueError(f"sample count must be >= 1, got {k}")
    r = sample_spacing(cone, k)
    apex = cone.apex_pose.position
    R = cone.apex_pose.rotation_matrix()
    if k == 1:
        # Centroid of a solid cone sits 3/4 of the way down the axis.
        return (apex + R @ np.array([0.0, 0.0, 0.75 * cone.h]))[None, :], r

    rng = np.random.default_rng(seed)
    layers = max(1, int(round(k ** (1.0 / 3.0))))
    counts = np.full(layers, k // layers, dtype=np.int64)
    counts[: k % layers] += 1
    draws = []
    for n in counts.tolist():
        draws += (rng.random(n), rng.permutation(n), rng.random(n), rng.random(n))
    u_axial, disk, u_rho, u_theta = (np.concatenate(draws[i::4]) for i in range(4))

    # Per sample: its layer's size, index within the layer and fraction
    # band [lo, lo + width).
    starts = np.cumsum(counts) - counts
    n = np.repeat(counts, counts)
    idx = np.arange(k) - np.repeat(starts, counts)
    lo = np.repeat(starts / k, counts)
    width = np.repeat((starts + counts) / k - starts / k, counts)
    # Axial positions: volume-uniform within the layer's fraction band.
    frac = lo + (idx + u_axial) / n * width
    axial = cone.h * np.cbrt(frac)
    # Disk positions: sunflower spiral, decoupled from the axial order.
    rho = np.sqrt((disk + u_rho) / n)
    theta = disk * GOLDEN_ANGLE + u_theta * (2.0 * math.pi / n)
    radial = rho * axial * math.tan(cone.fov / 2.0)
    local = np.column_stack((radial * np.cos(theta), radial * np.sin(theta), axial))
    return apex + local @ R.T, r

