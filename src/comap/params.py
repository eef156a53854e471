"""Protocol constants shared across the engine, with the deployed defaults."""

from __future__ import annotations

from dataclasses import dataclass, field

from .geometry import CameraIntrinsics

# Equivalent wire size of one full keyframe, used as the metering baseline.
FULL_KEYFRAME_BYTES = 160 * 1024


@dataclass(frozen=True)
class ProtocolParams:
    """Tunable constants of the map-sharing protocol.

    ``t_d`` (the neighbor-selection distance gate) defaults to twice the
    cone height. ``r_match_factor`` scales the overlap-sampling spacing
    down to the stricter localization matching radius.
    """

    h: float = 20.0
    t_d: float = field(default=0.0)
    t_seen: float = 0.9
    np_default: int = 300
    np_max: int = 300
    alpha: float = 1.3
    f: int = 2
    match_threshold: int = 75
    r_match_factor: float = 0.5
    k_nn: int = 8
    stale_min: int = 10
    cluster_min: int = 5
    update_window: int = 5

    def __post_init__(self):
        if self.t_d <= 0.0:
            object.__setattr__(self, "t_d", 2.0 * self.h)
        if self.h <= 0 or not (0.0 < self.t_seen < 1.0):
            raise ValueError("invalid protocol constants")
        if self.f < 1 or self.np_max < 1 or self.alpha < 1.0:
            raise ValueError("invalid protocol constants")


DEFAULT_PARAMS = ProtocolParams()

# Named camera presets (fx, fy, cx, cy in pixels).
CAMERA_PRESETS: dict[str, CameraIntrinsics] = {
    "d455_1280x720": CameraIntrinsics(634.2, 634.8, 631.8, 359.5),
    "d455_848x480": CameraIntrinsics(423.7, 423.0, 419.6, 239.7),
    "d455_640x480": CameraIntrinsics(383.4, 383.7, 316.5, 239.6),
    "euroc_752x480": CameraIntrinsics(458.7, 457.3, 367.2, 248.4),
    "sim_752x480": CameraIntrinsics(455.0, 455.0, 376.0, 240.0),
}
