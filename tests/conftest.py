"""Shared scenario builders for the test suite."""

import math

import numpy as np
import pytest

from comap.geometry import Pose
from comap.mapstore import GlobalMap, MapFrame, insert_frame
from comap.params import CAMERA_PRESETS, ProtocolParams
from comap.scenario import ScenarioConfig, UserSpec
from comap.sim import TrajectorySpec
from comap.wire import decode, encode, point_table

SIM_INTR = CAMERA_PRESETS["sim_752x480"]


def make_map(np_max: int = 300, **kwargs) -> GlobalMap:
    return GlobalMap(np_max=np_max, **kwargs)


def insert_point_cloud(gmap: GlobalMap, positions, client_id=1, frame_pose=None, fov=1.4,
                       start_id=None, frames_of=300, keyframe_id=0):
    """Insert a raw point cloud as consecutive frames of <= frames_of points."""
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    if start_id is None:
        start_id = int(gmap.points.max()) + 1 if len(gmap.points) else 1
    pose = frame_pose or Pose(0, 0, 0)
    ids = np.arange(start_id, start_id + len(positions), dtype=np.int64)
    for off in range(0, len(positions), frames_of):
        chunk_ids = ids[off : off + frames_of]
        chunk_pos = positions[off : off + frames_of]
        fid = gmap.allocate_frame_id()
        frame = MapFrame(fid, client_id, keyframe_id + off // frames_of, pose, fov, chunk_ids)
        insert_frame(gmap, frame, chunk_pos)
    return ids


def stored_frames(gmap: GlobalMap) -> dict[int, MapFrame]:
    """Every stored frame by id, in row order, each rebuilt from its
    frame-table row and its memberships."""
    mem_fr, mem_pt = gmap.memberships()
    return {
        fid: MapFrame(
            fid, client, keyframe, Pose(*pose.tolist()), fov, gmap.points[mem_pt[mem_fr == row]]
        )
        for row, (fid, client, keyframe, pose, fov, _) in enumerate(
            gmap._frames[: len(gmap.frames)].tolist()
        )
    }


def buffered_rows(index) -> np.ndarray:
    """Rows a map index holds in its side buffer: those after its tree's."""
    return np.arange(len(index._tree), len(index))


def point_records(ids, positions, descriptors=None, observation_counts=1):
    """A wire point table; omitted fields take the documented defaults
    (zero descriptor, observation count 1)."""
    table = point_table(len(ids))
    table["id"] = ids
    table["position"] = np.asarray(positions).reshape(-1, 3)
    if descriptors is not None:
        table["descriptor"] = descriptors
    table["observation_count"] = observation_counts
    return table


class ScriptedTransport:
    """A client transport that answers each request with the next scripted
    reply, encoded, and keeps every request it was sent, decoded."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.sent = []

    def request(self, raw):
        self.sent.append(decode(raw))
        return encode(self.replies.pop(0))


def straight_trajectory(length=80.0, d_kf=2.0, z=1.5, heading=0.0):
    c, s = math.cos(heading), math.sin(heading)
    return TrajectorySpec(
        waypoints=[(0.0, 0.0, z, heading), (length * c, length * s, z, heading)],
        d_kf=d_kf,
    )


def corridor_bounds(length=80.0, half_width=30.0):
    return np.array([[-25.0, -half_width, -18.0], [length + 25.0, half_width, 22.0]])


def two_user_config(seed=3, length=80.0, landmarks=20000, mode="mapxx", transport="inproc",
                    d_kf=2.0, params=None) -> ScenarioConfig:
    """Mapper plus an identical-trajectory follower in a dense corridor."""
    traj = straight_trajectory(length, d_kf=d_kf)
    return ScenarioConfig(
        seed=seed,
        scene_seed=seed + 8,
        bounds=corridor_bounds(length),
        landmark_count=landmarks,
        users=[
            UserSpec(client_id=1, intrinsics=SIM_INTR, trajectory=traj, role="mapper"),
            UserSpec(client_id=2, intrinsics=SIM_INTR, trajectory=traj, role="follower"),
        ],
        params=params or ProtocolParams(),
        mode=mode,
        transport=transport,
    )


def overlapping_users_config(n_users=20, seed=5, seg_len=30.0, offset=15.0,
                             landmarks=60000, mode="mapxx") -> ScenarioConfig:
    """n users on staggered straight paths: 50% overlap with the predecessor."""
    users = []
    for k in range(n_users):
        x0 = k * offset
        traj = TrajectorySpec(
            waypoints=[(x0, 0.0, 1.5, 0.0), (x0 + seg_len, 0.0, 1.5, 0.0)],
            d_kf=2.0,
        )
        users.append(
            UserSpec(client_id=k + 1, intrinsics=SIM_INTR, trajectory=traj,
                     role="mapper" if k == 0 else "follower")
        )
    total = (n_users - 1) * offset + seg_len
    return ScenarioConfig(
        seed=seed,
        scene_seed=seed + 8,
        bounds=np.array([[-25.0, -30.0, -18.0], [total + 25.0, 30.0, 22.0]]),
        landmark_count=landmarks,
        users=users,
        params=ProtocolParams(),
        mode=mode,
    )


def curved_trajectory(n_legs=8, leg=8.0, turn_deg=30.0, d_kf=2.0) -> TrajectorySpec:
    """A turning path; proactive oversharing pays off on the turns."""
    pts = [(0.0, 0.0, 1.5, 0.0)]
    x, y, hd = 0.0, 0.0, 0.0
    for _ in range(n_legs):
        hd_rad = hd
        x += leg * math.cos(hd_rad)
        y += leg * math.sin(hd_rad)
        hd += math.radians(turn_deg)
        pts.append((x, y, 1.5, hd))
    return TrajectorySpec(waypoints=pts, d_kf=d_kf)


def canonical_curve_config(alpha, seed=4, density=0.05) -> ScenarioConfig:
    """The canonical seen-path replay: mapper then follower on a turning
    64 m path, landmark density matched to the np_max selection budget."""
    traj = curved_trajectory()
    pts = np.array([w[:3] for w in traj.waypoints])
    lo = pts.min(axis=0) - [25.0, 25.0, 20.0]
    hi = pts.max(axis=0) + [25.0, 25.0, 22.0]
    volume = float(np.prod(hi - lo))
    return ScenarioConfig(
        seed=seed,
        scene_seed=9,
        bounds=np.array([lo, hi]),
        landmark_count=int(density * volume),
        users=[
            UserSpec(client_id=1, intrinsics=SIM_INTR, trajectory=traj, role="mapper"),
            UserSpec(client_id=2, intrinsics=SIM_INTR, trajectory=traj, role="follower",
                     alpha=alpha),
        ],
        params=ProtocolParams(),
    )


def planted_change_config(seed=3, mutate=True) -> ScenarioConfig:
    """Corridor of landmark blobs with a blob-free gap bridged by a removable
    'cars' cluster: removing it drops in-view observations below the
    localization threshold right where the stale map still claims coverage."""
    blobs = [
        {"label": f"blob{x}", "count": 180, "center": [float(x), 0.0, 1.5], "sigma": 3.0}
        for x in (0, 6, 12, 48, 54)
    ]
    clusters = blobs + [
        {"label": "cars", "count": 55, "center": [28.0, 0.0, 1.5], "sigma": 2.2}
    ]
    total = sum(c["count"] for c in clusters) + 2450
    traj = TrajectorySpec(waypoints=[(0.0, 0.0, 1.5, 0.0), (50.0, 0.0, 1.5, 0.0)], d_kf=2.0)
    users = [
        UserSpec(client_id=1, intrinsics=SIM_INTR, trajectory=traj, role="mapper"),
        UserSpec(client_id=2, intrinsics=SIM_INTR, trajectory=traj, role="mapper", mode="vanilla"),
        UserSpec(
            client_id=3,
            intrinsics=SIM_INTR,
            trajectory=traj,
            role="follower",
            scene_ops=[{"op": "remove_cluster", "cluster": "cars"}] if mutate else [],
        ),
    ]
    return ScenarioConfig(
        seed=seed,
        scene_seed=77,
        bounds=np.array([[-25.0, -25.0, -18.0], [79.0, 25.0, 22.0]]),
        landmark_count=total,
        clusters=clusters,
        users=users,
        params=ProtocolParams(),
    )


def randomized_overlap_config(seed, n_users=4) -> ScenarioConfig:
    """Users with randomized partial path overlap on a shared corridor."""
    rng = np.random.default_rng(seed)
    users = []
    for k in range(n_users):
        x0 = float(rng.uniform(0.0, 36.0))
        users.append(
            UserSpec(
                client_id=k + 1,
                intrinsics=SIM_INTR,
                trajectory=TrajectorySpec(
                    waypoints=[(x0, 0.0, 1.5, 0.0), (x0 + 24.0, 0.0, 1.5, 0.0)], d_kf=2.0
                ),
            )
        )
    return ScenarioConfig(
        seed=seed,
        scene_seed=seed + 31,
        bounds=np.array([[-25.0, -30.0, -18.0], [105.0, 30.0, 22.0]]),
        landmark_count=16000,
        users=users,
        params=ProtocolParams(),
    )


ACCEPTANCE_PREFIX = "tests/test_acceptance.py::"


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion."""
    lines = []
    for outcome in ("passed", "failed"):
        for report in terminalreporter.stats.get(outcome, []):
            if "test_acceptance.py" in report.nodeid:
                name = report.nodeid.split("::")[-1]
                lines.append((name, outcome))
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for name, outcome in sorted(lines):
            terminalreporter.write_line(f"{'PASS' if outcome == 'passed' else 'FAIL'}  {name}")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)
