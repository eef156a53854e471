"""Metadata-based overlap assessment against a growing map.

A single corridor gets mapped pose by pose; re-querying poses at different
offsets shows the overlap degree rising with coverage, the seen flag
tripping at 90%, and how small the query/response messages stay relative
to a full keyframe.
"""

import numpy as np

from comap import (
    CAMERA_PRESETS,
    FULL_KEYFRAME_BYTES,
    GlobalMap,
    MapFrame,
    Pose,
    assess_overlap,
    build_response,
    compute_fov,
    encode,
    insert_frame,
)
from comap.sim import generate_scene, observe
from comap.wire import OverlapQueryMsg

intr = CAMERA_PRESETS["sim_752x480"]
fov = compute_fov(intr)
scene = generate_scene(11, [[-25, -25, -18], [65, 25, 22]], 14000)

gmap = GlobalMap(np_max=300)
rng = np.random.default_rng(0)
counters = np.zeros(len(scene), dtype=np.int64)
for i, x in enumerate(np.arange(0.0, 30.0, 2.0)):
    pose = Pose(x, 0, 1.5, 0.0, np.pi / 2, 0.0)
    kf = observe(scene, pose, intr, 300, 0.05, rng, counters, keyframe_id=i)
    frame = MapFrame(gmap.allocate_frame_id(), 1, i, pose, fov, kf.landmark_ids)
    insert_frame(gmap, frame, kf.positions, kf.descriptors)

print(f"map: {len(gmap.frames)} frames, {len(gmap.points)} points")
print("\nquery pose offset | overlap degree | seen | response bytes")
for x in (5.0, 15.0, 28.0, 45.0, 80.0):
    pose = Pose(x, 0, 1.5, 0.0, np.pi / 2, 0.0)
    verdict = assess_overlap(gmap, pose, fov, k=300, seed=42)
    resp = build_response(verdict)
    print(f"  x = {x:5.1f} m     | {verdict.overlap_degree:11.3f}  | {str(verdict.seen):5} |"
          f" {len(encode(resp)):6d}")

query = encode(OverlapQueryMsg(1, 0, 300, Pose(0, 0, 1.5)))
print(f"\noverlap query frame: {len(query)} bytes "
      f"({len(query) / FULL_KEYFRAME_BYTES:.4%} of a full keyframe)")
