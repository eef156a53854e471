import math
import time

import numpy as np
import pytest

from comap.geometry import Pose, compute_fov, cone_from_fov, contains, contains_many
from comap.expansion import Keyframe
from comap.mapstore import GlobalMap, MapFrame, insert_frame, select_neighbors
from comap.params import ProtocolParams
from comap.scenario import run_scenario
from comap.sharing import (
    DeviceAction,
    DeviceLoopState,
    SharedMapSlice,
    UpdateStatus,
    UpdateVerdict,
    _cluster_sizes,
    _window_rows,
    build_shared_map,
    default_r_match,
    get_update_status,
    run_device_loop,
)
from comap.sim import generate_scene, mutate_scene, observe
from comap.spatial import KdTree, linear_radius_search
from comap.wire import (
    FRAME_DTYPE,
    KeyframeUploadMsg,
    SharedMapRequestMsg,
    SharedMapResponseMsg,
    UpdateCheckMsg,
    UpdateStatusMsg,
    VERDICT_EXPANSION,
    VERDICT_UPDATING,
)

from conftest import (
    SIM_INTR,
    buffered_rows,
    canonical_curve_config,
    insert_point_cloud,
    point_records,
    stored_frames,
    two_user_config,
)

FOV = compute_fov(SIM_INTR)
PARAMS = ProtocolParams()


def corridor_scene(seed=3, cluster_center=(40.0, 3.0, 2.0), cluster=50, background=2600):
    bounds = np.array([[-25.0, -25.0, -18.0], [85.0, 25.0, 22.0]])
    return generate_scene(
        seed,
        bounds,
        landmark_count=background + cluster,
        cluster_spec=[{"label": "cars", "count": cluster, "center": cluster_center, "sigma": 1.8}],
    )


def map_from_passes(scene, poses, passes=2, np_max=400, noise=0.05, seed=5):
    """Insert one frame per pose per pass; repeat passes raise observation counts."""
    gmap = GlobalMap(np_max=np_max)
    rng = np.random.default_rng(seed)
    for p in range(passes):
        counters = np.zeros(len(scene), dtype=np.int64)
        for pose in poses:
            kf = observe(scene, pose, SIM_INTR, np_max, noise, rng, counters)
            fid = gmap.allocate_frame_id()
            frame = MapFrame(fid, p + 1, fid, pose, kf.fov, kf.landmark_ids)
            insert_frame(gmap, frame, kf.positions)
    return gmap


def path_poses(x0=0.0, x1=60.0, step=2.0, y=0.0, z=1.5):
    # pitch pi/2 tips the camera forward along +x.
    return [Pose(x, y, z, 0.0, math.pi / 2, 0.0) for x in np.arange(x0, x1 + 1e-9, step)]


class TestBuildSharedMap:
    def test_empty_map_gives_empty_slice(self):
        slice_ = build_shared_map(GlobalMap(), Pose(0, 0, 0), FOV, alpha=1.3)
        assert slice_.to_response().empty

    def test_alpha_monotone_point_sets(self, rng):
        gmap = GlobalMap(np_max=400)
        insert_point_cloud(gmap, rng.uniform(-10, 30, (2000, 3)), frame_pose=Pose(0, 0, 0))
        q = Pose(0, 0, 0, yaw=0.3)
        prev: set = set()
        for alpha in (1.0, 1.15, 1.3, 1.6):
            ids = set(build_shared_map(gmap, q, FOV, alpha).point_ids.tolist())
            assert prev <= ids
            prev = ids
        assert prev  # widest cone actually holds something

    def test_point_set_matches_cone_filter_oracle(self, rng):
        gmap = GlobalMap(np_max=400)
        pts = rng.uniform(-15, 35, (3000, 3))
        ids = insert_point_cloud(gmap, pts, frame_pose=Pose(2, 1, 0, yaw=0.2))
        q = Pose(0, 0, 1.0, yaw=0.25)
        slice_ = build_shared_map(gmap, q, FOV, alpha=1.3)
        cone = cone_from_fov(q, FOV, PARAMS.h, 1.3)
        want = set(ids[contains_many(cone, pts)].tolist())
        assert set(slice_.point_ids.tolist()) == want
        # positions align with ids
        rows = gmap.rows_for_ids(slice_.point_ids[:25])
        np.testing.assert_array_equal(slice_.point_positions[:25], gmap.point_positions[rows])

    def test_frame_records_reference_only_slice_points(self, rng):
        gmap = GlobalMap(np_max=400)
        insert_point_cloud(gmap, rng.uniform(-15, 35, (1500, 3)), frame_pose=Pose(0, 0, 0))
        slice_ = build_shared_map(gmap, Pose(0, 0, 1.0), FOV, alpha=1.0)
        assert len(slice_.frames)
        assert slice_.frames["id_count"].sum() == len(slice_.frame_point_ids)
        assert set(slice_.frame_point_ids.tolist()) <= set(slice_.point_ids.tolist())

    def test_exclude_client_hides_their_contribution(self, rng):
        gmap = GlobalMap(np_max=400)
        insert_point_cloud(gmap, rng.uniform(0, 15, (300, 3)), client_id=1, frame_pose=Pose(0, 0, 0))
        slice_self = build_shared_map(gmap, Pose(0, 0, 1.0), FOV, 1.3, exclude_client=1)
        slice_other = build_shared_map(gmap, Pose(0, 0, 1.0), FOV, 1.3, exclude_client=2)
        assert slice_self.to_response().empty
        assert not slice_other.to_response().empty


class TestLocalize:
    """On-slice localization, through the slice the device receives."""

    def localize(self, observations, slice_points, r_match, threshold=75):
        state = DeviceLoopState(
            client_id=9, fov=FOV, link=None,
            params=ProtocolParams(match_threshold=threshold), r_match=r_match,
        )
        state.set_slice(slice_response(slice_points))
        return state.localize_on_slice(observations)

    def test_identical_observations_match_fully(self, rng):
        pts = rng.uniform(-10, 10, (120, 3))
        out = self.localize(pts, pts, r_match=0.5, threshold=75)
        assert out.matched_count == 120
        assert out.success

    def test_below_threshold_fails(self, rng):
        pts = rng.uniform(-10, 10, (60, 3))
        out = self.localize(pts, pts, r_match=0.5, threshold=75)
        assert out.matched_count == 60
        assert not out.success

    def test_threshold_boundary_succeeds(self, rng):
        pts = rng.uniform(-10, 10, (75, 3))
        out = self.localize(pts, pts, r_match=0.5, threshold=75)
        assert out.matched_count == 75
        assert out.success

    def test_empty_slice_fails(self, rng):
        out = self.localize(rng.uniform(-1, 1, (100, 3)), np.empty((0, 3)), r_match=1.0)
        assert out.matched_count == 0 and not out.success

    def test_offset_just_past_radius_matches_nothing(self):
        r = 1.25
        slice_pts = np.stack([np.arange(100) * 4.0, np.zeros(100), np.zeros(100)], axis=1)
        obs = slice_pts + np.array([0.0, 1.01 * r, 0.0])
        out = self.localize(obs, slice_pts, r_match=r, threshold=1)
        assert out.matched_count == 0

    def test_offset_of_exactly_radius_matches(self):
        r = 1.25
        slice_pts = np.stack([np.arange(100) * 4.0, np.zeros(100), np.zeros(100)], axis=1)
        obs = slice_pts + np.array([0.0, r, 0.0])
        out = self.localize(obs, slice_pts, r_match=r, threshold=100)
        assert out.matched_count == 100 and out.success


class ScriptedLink:
    def __init__(self, responses):
        self.responses = list(responses)
        self.sent = []

    def send(self, msg):
        self.sent.append(msg)
        return self.responses.pop(0)


def slice_response(points):
    return SharedMapResponseMsg(points=point_records(np.arange(1, len(points) + 1), points))


class TestDeviceLoop:
    def make_state(self, link, **kw):
        return DeviceLoopState(client_id=9, fov=FOV, link=link, params=PARAMS, **kw)

    def test_happy_path_single_request(self, rng):
        obs = rng.uniform(-5, 5, (200, 3)).astype(np.float64)
        link = ScriptedLink([slice_response(obs)])
        state = self.make_state(link)
        action = run_device_loop(state, 3, Pose(0, 0, 0), obs)
        assert action is DeviceAction.CONTINUE_ON_SHARED_MAP
        assert len(link.sent) == 1
        assert isinstance(link.sent[0], SharedMapRequestMsg)
        assert sum(ev.get("event") == "shared_map_request" for ev in state.trace) == 1

    def test_empty_slice_expands_without_update_check(self, rng):
        link = ScriptedLink([SharedMapResponseMsg()])
        state = self.make_state(link)
        action = run_device_loop(state, 3, Pose(0, 0, 0), rng.uniform(-5, 5, (100, 3)))
        assert action is DeviceAction.EXPAND
        assert len(link.sent) == 1
        assert not any(isinstance(m, UpdateCheckMsg) for m in link.sent)

    def test_two_failures_trigger_update_check(self, rng):
        obs = rng.uniform(-5, 5, (200, 3))
        far = slice_response(obs + 100.0)  # localization cannot succeed
        status = UpdateStatusMsg(VERDICT_UPDATING, np.array([4, 5, 6]))
        link = ScriptedLink([far, far, status])
        state = self.make_state(link)
        state.note_keyframe(Keyframe.empty(3, Pose(0, 0, 0), FOV))
        action = run_device_loop(state, 3, Pose(0, 0, 0), obs)
        assert action is DeviceAction.UPDATE_DETECTED
        kinds = [type(m).__name__ for m in link.sent]
        assert kinds == ["SharedMapRequestMsg", "SharedMapRequestMsg", "UpdateCheckMsg"]
        assert state.update_events and state.update_events[0]["stale_ids"] == [4, 5, 6]

    def test_expansion_verdict_after_failures(self, rng):
        obs = rng.uniform(-5, 5, (200, 3))
        far = slice_response(obs + 100.0)
        status = UpdateStatusMsg(VERDICT_EXPANSION, np.empty(0, dtype=np.int64))
        link = ScriptedLink([far, far, status])
        state = self.make_state(link)
        state.note_keyframe(Keyframe.empty(3, Pose(0, 0, 0), FOV))
        action = run_device_loop(state, 3, Pose(0, 0, 0), obs)
        assert action is DeviceAction.EXPAND
        assert not state.update_events

    def test_recent_window_bounded(self):
        state = self.make_state(ScriptedLink([]))
        for i in range(12):
            state.note_keyframe(Keyframe.empty(i, Pose(0, 0, 0), FOV))
        assert len(state.recent_kfs) == PARAMS.update_window


def uploads_at(scene, poses, seed=17, np_max=400):
    """Client 9's keyframe uploads observed at the given poses."""
    rng = np.random.default_rng(seed)
    counters = np.zeros(len(scene), dtype=np.int64)
    return [
        observe(scene, p, SIM_INTR, np_max, 0.05, rng, counters, keyframe_id=i).to_upload_msg(9)
        for i, p in enumerate(poses)
    ]


class TestGetUpdateStatus:
    def kfs_at(self, scene, poses, seed=17, np_max=400):
        return uploads_at(scene, poses, seed, np_max)

    def test_unchanged_world_is_expansion(self):
        scene = corridor_scene()
        gmap = map_from_passes(scene, path_poses())
        kfs = self.kfs_at(scene, path_poses(28, 32))
        status = get_update_status(gmap, kfs, params=PARAMS)
        assert status.verdict is UpdateVerdict.EXPANSION
        assert status.stale_point_ids == set()

    def test_removed_cluster_detected_with_recall(self):
        scene = corridor_scene()
        gmap = map_from_passes(scene, path_poses())
        mutated = mutate_scene(scene, "remove_cluster", "cars")
        poses = path_poses(26, 34)
        kfs = self.kfs_at(mutated, poses)
        status = get_update_status(gmap, kfs, params=PARAMS)
        assert status.verdict is UpdateVerdict.UPDATING
        cluster_ids = set(int(i) for i in scene.cluster_ids("cars"))
        recall = len(status.stale_point_ids & cluster_ids) / len(cluster_ids)
        assert recall >= 0.8
        # Background landmarks barely pollute the stale set.
        false_ids = status.stale_point_ids - cluster_ids
        assert len(false_ids) <= len(status.stale_point_ids) // 2

    def test_never_mapped_region_is_expansion(self):
        scene = corridor_scene()
        gmap = map_from_passes(scene, path_poses())
        kfs = self.kfs_at(scene, [Pose(500, 500, 1.5, 0.0, math.pi / 2, 0.0)])
        status = get_update_status(gmap, kfs, params=PARAMS)
        assert status.verdict is UpdateVerdict.EXPANSION
        assert status.examined == 0

    def test_no_false_alarms_across_randomized_replays(self):
        scene = corridor_scene(seed=21)
        gmap = map_from_passes(scene, path_poses(), seed=6)
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            x = float(rng.uniform(10, 50))
            kfs = self.kfs_at(scene, path_poses(x, x + 4), seed=seed)
            status = get_update_status(gmap, kfs, params=PARAMS)
            assert status.verdict is UpdateVerdict.EXPANSION, f"false alarm at seed {seed}"

    def test_empty_keyframes_rejected(self):
        with pytest.raises(ValueError):
            get_update_status(GlobalMap(), [], params=PARAMS)


def bfs_cluster_sizes(positions, radius):
    """Reference single-linkage component sizes: BFS over the linear scan."""
    seen = np.zeros(len(positions), dtype=bool)
    sizes = []
    for start in range(len(positions)):
        if seen[start]:
            continue
        seen[start] = True
        queue, size = [start], 0
        while queue:
            i = queue.pop()
            size += 1
            for j in linear_radius_search(positions, positions[i], radius):
                if not seen[j]:
                    seen[j] = True
                    queue.append(int(j))
        sizes.append(size)
    return sizes


def reference_confirmation(gmap, kfs, k_nn, r_match, params=PARAMS):
    """The update check's candidates, confirmed rows and cluster sizes,
    computed per row as first written: a brute-force kNN (ties by index)
    per candidate, minus the candidate itself, then a BFS for clusters."""
    positions = gmap.point_positions
    counts = gmap.point_observation_counts
    high = np.zeros(len(positions), dtype=bool)
    for kf in kfs:
        in_cone = contains_many(cone_from_fov(kf.pose, kf.fov, params.h), positions)
        if in_cone.any():
            high |= in_cone & (counts >= float(np.median(counts[in_cone])))
    obs = np.concatenate([kf.points["position"] for kf in kfs]).astype(np.float64)
    observed = np.array([len(linear_radius_search(obs, p, r_match)) > 0 for p in positions])
    candidates = np.flatnonzero(high & ~observed)
    confirmed, self_dropped = [], 0
    for row in candidates:
        d2 = np.sum((positions - positions[row]) ** 2, axis=1)
        nn = np.argsort(d2, kind="stable")[: k_nn + 1]
        self_dropped += row not in nn
        nn = nn[nn != row][:k_nn]
        if int((~observed[nn]).sum()) >= max(1, math.ceil(k_nn / 2)):
            confirmed.append(int(row))
    confirmed = np.array(confirmed, dtype=np.int64)
    sizes = bfs_cluster_sizes(positions[confirmed], 2.0 * r_match)
    return candidates, confirmed, sizes, self_dropped


class TestUpdateCheckOracle:
    def test_cluster_sizes_match_bfs(self, rng):
        for _ in range(20):
            pts = np.round(rng.uniform(-5, 5, (int(rng.integers(0, 200)), 3)), 1)
            radius = float(rng.uniform(0, 1.5))
            assert _cluster_sizes(pts, radius) == bfs_cluster_sizes(pts, radius)
        # A link at exactly the radius joins.
        assert _cluster_sizes(np.array([[0.0, 0, 0], [3, 4, 0], [9, 0, 0]]), 5.0) == [2, 1]

    def test_cluster_sizes_on_long_chains_match_bfs(self, rng):
        # Chains of steps (3, 4, 0), exactly the radius 5, broken now and then
        # by a step (3, 4, 1) just over it, each chain on its own level;
        # the points are shuffled so unions meet in any order.
        for _ in range(8):
            chains = []
            for level in range(int(rng.integers(1, 5))):
                n = int(rng.integers(1, 400))
                steps = np.where(rng.uniform(size=(n, 1)) < 0.02, [3, 4, 1], [3, 4, 0])
                chains.append(np.cumsum(steps, axis=0) + [0, 0, 100 * level])
            pts = np.vstack(chains).astype(np.float64)
            pts = pts[rng.permutation(len(pts))]
            assert _cluster_sizes(pts, 5.0) == bfs_cluster_sizes(pts, 5.0)
        assert _cluster_sizes(np.empty((0, 3)), 5.0) == []

    def test_confirmation_matches_per_row_loop_with_duplicates(self, rng):
        # Snapped points, a dozen of them stored ten times over: the later
        # copies of a point do not find themselves among their k_nn + 1
        # nearest neighbours (ties go to the lower rows). Half the view and
        # a random 30% of the rest are re-observed.
        pose = Pose(0, 0, 1.5, 0.0, math.pi / 2, 0.0)
        base = np.round(rng.uniform([4, -4, -2.5], [16, 4, 5.5], (400, 3)) * 2) / 2
        positions = np.vstack([np.repeat(base[:12], 10, axis=0), base[12:]])
        gmap = GlobalMap(np_max=PARAMS.np_max)
        insert_point_cloud(gmap, positions)
        seen = base[(base[:, 1] > 0.5) | (rng.uniform(size=len(base)) < 0.3)]
        kfs = [
            KeyframeUploadMsg(
                9, i, pose, FOV, point_records(i * 1000 + np.arange(len(chunk)), chunk)
            )
            for i, chunk in enumerate(np.array_split(seen, 2))
        ]
        r_match = 0.6
        candidates, confirmed, sizes, self_dropped = reference_confirmation(
            gmap, kfs, PARAMS.k_nn, r_match
        )
        assert self_dropped > 0 and 0 < len(confirmed) < len(candidates)
        status = get_update_status(gmap, kfs, r_match=r_match, params=PARAMS)
        assert status.verdict is UpdateVerdict.UPDATING
        assert status.stale_candidates == len(candidates)
        assert status.stale_point_ids == set(int(i) for i in gmap.points[confirmed])
        assert status.cluster_count == sum(1 for s in sizes if s >= PARAMS.cluster_min)


def full_scan_build_shared_map(gmap, q, q_fov, alpha, params=PARAMS, exclude_client=None):
    """Reference slice from whole-map scans, as first written: the cone test
    over every map point, and one ``contains`` per sorted gated neighbor."""
    cone = cone_from_fov(q, q_fov, params.h, alpha)
    positions = gmap.point_positions
    in_cone = contains_many(cone, positions)
    mem_fr, mem_pt = gmap.memberships()
    owner = in_cone[mem_pt]
    if exclude_client is not None:
        owner &= gmap._fr_client[mem_fr] != exclude_client
        in_cone = np.zeros_like(in_cone)
        in_cone[mem_pt[owner]] = True
    frame_rows = set(mem_fr[owner].tolist())
    neighbors = select_neighbors(gmap, q, q_fov, params.t_d, exclude_client=exclude_client)
    frames = stored_frames(gmap)
    for fid in neighbors.frame_ids:
        if contains(cone, frames[fid].pose.position):
            frame_rows.add(list(frames).index(fid))
    heads, runs = [], [np.empty(0, dtype=np.int64)]
    for row in sorted(frame_rows, key=lambda r: gmap._fr_ids[r]):
        f = frames[int(gmap._fr_ids[row])]
        rows = mem_pt[mem_fr == row]
        runs.append(gmap.points[rows[in_cone[rows]]])
        heads.append((f.frame_id, f.client_id, f.keyframe_id, f.pose.as_array(), f.fov,
                      len(runs[-1])))
    rows = np.flatnonzero(in_cone)
    rows = rows[np.argsort(gmap.points[rows], kind="stable")]
    return SharedMapSlice(np.array(heads, dtype=FRAME_DTYPE).reshape(-1), np.concatenate(runs),
                          gmap.points[rows], positions[rows], gmap.point_observation_counts[rows])


def full_scan_update_status(gmap, kfs, k_nn, r_match, params=PARAMS):
    """Reference update check from whole-map scans, as first written: every
    map point tested against each cone and for re-observation, and a tree
    over the whole map for the neighbours."""
    positions = gmap.point_positions
    counts = gmap.point_observation_counts
    if not len(positions):
        return UpdateStatus(UpdateVerdict.EXPANSION, set())
    high = np.zeros(len(positions), dtype=bool)
    for kf in kfs:
        in_cone = contains_many(cone_from_fov(kf.pose, kf.fov, params.h), positions)
        if in_cone.any():
            high |= in_cone & (counts >= float(np.median(counts[in_cone])))
    examined = int(high.sum())
    if examined == 0:
        return UpdateStatus(UpdateVerdict.EXPANSION, set())
    obs = np.concatenate([kf.points["position"] for kf in kfs]).astype(np.float64)
    if not len(obs):
        return UpdateStatus(UpdateVerdict.EXPANSION, set(), examined=examined)
    observed = KdTree(obs).any_within(positions, r_match)
    candidate_rows = np.flatnonzero(high & ~observed)
    confirmed = candidate_rows
    if len(candidate_rows):
        nn = KdTree(positions).query_nearest(positions[candidate_rows], k_nn + 1)
        keep = nn != candidate_rows[:, None]
        keep &= np.cumsum(keep, axis=1) <= k_nn
        unobserved = np.sum(keep & ~observed[nn], axis=1)
        confirmed = candidate_rows[unobserved >= max(1, math.ceil(k_nn / 2))]
    sizes = _cluster_sizes(positions[confirmed], 2.0 * r_match)
    updating = (
        len(confirmed) >= params.stale_min and bool(sizes) and max(sizes) >= params.cluster_min
    )
    return UpdateStatus(
        verdict=UpdateVerdict.UPDATING if updating else UpdateVerdict.EXPANSION,
        stale_point_ids=set(gmap.points[confirmed].tolist()) if updating else set(),
        examined=examined,
        high_confidence=examined,
        stale_candidates=int(len(candidate_rows)),
        cluster_count=sum(1 for s in sizes if s >= params.cluster_min),
    )


def cone_boundary_points(rng, cone, n):
    """Points on the cone's base rim, at the apex, on the apex ball that bounds
    the cone (padded as the index is asked) and just inside and outside it."""
    R = cone.apex_pose.rotation_matrix()
    theta = rng.uniform(0, 2 * math.pi, n)
    radial = cone.h * math.tan(cone.fov / 2.0)
    rim = np.stack([radial * np.cos(theta), radial * np.sin(theta), np.full(n, cone.h)], axis=1)
    bound = cone.h / math.cos(cone.fov / 2.0)
    directions = rim / np.linalg.norm(rim, axis=1, keepdims=True)
    shells = [bound * (1 + 1e-9) + 1e-9, bound * (1 - 1e-12), bound * (1 + 1e-12)]
    local = np.vstack([rim, np.zeros((1, 3))] + [directions * d for d in shells])
    return cone.apex_pose.position + local @ R.T


def map_with_buffered_duplicates(rng, scene, poses):
    """Two mapping passes (clients 1 and 2), then client 3's frames, still in
    the point index's side buffer, repeating existing positions under new ids."""
    gmap = map_from_passes(scene, poses)
    gmap._point_index.rebuild()
    rows = rng.choice(len(gmap.points), 60, replace=False)
    insert_point_cloud(gmap, gmap.point_positions[rows], client_id=3,
                       frame_pose=poses[len(poses) // 2], fov=FOV, frames_of=20)
    assert len(buffered_rows(gmap._point_index)) == 60
    return gmap


class TestQueryLocalReads:
    """The read handlers ask the persistent point index for the query's
    neighbourhood; they must return exactly what whole-map scans return."""

    def test_cone_rows_match_full_scan(self, rng):
        for _ in range(8):
            q = Pose(*rng.uniform(-20, 20, 3), *rng.uniform(-math.pi, math.pi, 3))
            cones = [cone_from_fov(q, FOV, PARAMS.h, alpha) for alpha in (1.0, 1.3, 2.5)]
            gmap = GlobalMap(np_max=400)
            insert_point_cloud(gmap, q.position + rng.uniform(-30, 30, (3000, 3)), fov=FOV)
            for cone in cones:
                insert_point_cloud(gmap, cone_boundary_points(rng, cone, 20), fov=FOV)
            gmap._point_index.rebuild()
            buffered = [
                insert_point_cloud(gmap, cone_boundary_points(rng, cone, 20), fov=FOV)
                for cone in cones
            ]
            in_buffer = set(buffered_rows(gmap._point_index).tolist())
            assert set(gmap.rows_for_ids(np.concatenate(buffered)).tolist()) <= in_buffer
            for cone in cones:
                want = np.flatnonzero(contains_many(cone, gmap.point_positions))
                np.testing.assert_array_equal(np.sort(_window_rows(gmap, [cone])[0]), want)

    def test_window_rows_match_one_cone_at_a_time(self, rng):
        # Five cones of different widths around nearby poses, with rim,
        # apex and bounding-ball points of each in the tree and in the side
        # buffer: the one batched query must give each cone what a query
        # of its own gives, which is what a full scan gives.
        for _ in range(6):
            origin = rng.uniform(-20, 20, 3)
            cones = [
                cone_from_fov(
                    Pose(*(origin + rng.uniform(-4, 4, 3)), *rng.uniform(-math.pi, math.pi, 3)),
                    FOV, PARAMS.h, alpha,
                )
                for alpha in rng.uniform(1.0, 2.5, 5)
            ]
            gmap = GlobalMap(np_max=400)
            insert_point_cloud(gmap, origin + rng.uniform(-30, 30, (3000, 3)), fov=FOV)
            for cone in cones:
                insert_point_cloud(gmap, cone_boundary_points(rng, cone, 20), fov=FOV)
            gmap._point_index.rebuild()
            for cone in cones:
                insert_point_cloud(gmap, cone_boundary_points(rng, cone, 6), fov=FOV)
            assert len(buffered_rows(gmap._point_index)) == 5 * (6 + 1 + 3 * 6)
            for cone, rows in zip(cones, _window_rows(gmap, cones)):
                want = np.flatnonzero(contains_many(cone, gmap.point_positions))
                alone = _window_rows(gmap, [cone])[0]
                np.testing.assert_array_equal(np.sort(rows), np.sort(alone))
                np.testing.assert_array_equal(np.sort(rows), want)

    def test_build_shared_map_matches_full_scan(self, rng):
        scene = corridor_scene()
        poses = path_poses()
        gmap = map_with_buffered_duplicates(rng, scene, poses)
        for q in poses[::3] + [Pose(200, 0, 1.5, 0.0, math.pi / 2, 0.0)]:
            for alpha in (1.0, 1.3):
                for exclude in (None, 1, 2, 3):
                    got = build_shared_map(gmap, q, FOV, alpha, params=PARAMS,
                                           exclude_client=exclude)
                    want = full_scan_build_shared_map(gmap, q, FOV, alpha, exclude_client=exclude)
                    assert got.frames.tobytes() == want.frames.tobytes()
                    np.testing.assert_array_equal(got.frame_point_ids, want.frame_point_ids)
                    np.testing.assert_array_equal(got.point_ids, want.point_ids)
                    np.testing.assert_array_equal(got.point_positions, want.point_positions)
                    np.testing.assert_array_equal(got.point_observations,
                                                  want.point_observations)

    def test_update_status_matches_full_scan(self, rng):
        scene = corridor_scene()
        poses = path_poses()
        gmap = map_with_buffered_duplicates(rng, scene, poses)
        mutated = mutate_scene(scene, "remove_cluster", "cars")
        verdicts = set()
        for x in (0.0, 14.0, 26.0, 30.0, 50.0, 500.0):
            for world in (scene, mutated):
                kfs = uploads_at(world, path_poses(x, x + 8), seed=int(x))
                for r_match in (None, 0.3):
                    r = default_r_match(kfs[0].fov, PARAMS) if r_match is None else r_match
                    got = get_update_status(gmap, kfs, r_match=r, params=PARAMS)
                    want = full_scan_update_status(gmap, kfs, PARAMS.k_nn, r)
                    assert got == want
                    verdicts.add(got.verdict)
        assert verdicts == {UpdateVerdict.EXPANSION, UpdateVerdict.UPDATING}


def corridor_map(positions):
    """A map of uniform corridor points, x-sorted into frames of 300 that
    each also list 100 of the previous frame's points (observed twice)."""
    rng = np.random.default_rng(8)
    chunks = np.array_split(np.arange(len(positions)), len(positions) // 300)
    frames, rows = [], []
    for j, chunk in enumerate(chunks):
        again = rng.choice(chunks[j - 1], 100, replace=False) if j else chunk[:0]
        listed = np.concatenate([chunk, again])
        pose = Pose(float(positions[chunk, 0].min()), 0.0, 1.5, 0.0, math.pi / 2, 0.0)
        frames.append(MapFrame(j + 1, 1, j, pose, FOV, listed + 1))
        rows.append(listed)
    gmap = GlobalMap(np_max=500)
    gmap._append_frames(frames, positions[np.concatenate(rows)], None)
    return gmap


class TestUpdateCheckScaling:
    def test_update_check_time_does_not_follow_map_size(self, rng):
        """One update check on a 200k-point corridor takes at most twice as
        long as the same check on its first 20k points (a scan of every
        point would take about ten times as long)."""
        extent = np.array([[0.0, -15.0, -5.0], [200.0, 15.0, 10.0]])
        near = rng.uniform(*extent, (20_000, 3))
        far = rng.uniform(*(extent + [[200.0, 0, 0], [1800.0, 0, 0]]), (180_000, 3))
        near, far = near[np.argsort(near[:, 0])], far[np.argsort(far[:, 0])]
        maps = [corridor_map(near), corridor_map(np.vstack([near, far]))]
        # A window of five keyframes that re-observe every point in view
        # but those of a removed ball.
        kfs = []
        for i, x in enumerate(range(60, 70, 2)):
            pose = Pose(float(x), 0.0, 1.5, 0.0, math.pi / 2, 0.0)
            seen = near[contains_many(cone_from_fov(pose, FOV, PARAMS.h), near)]
            seen = seen[np.linalg.norm(seen - [75.0, 0.0, 1.5], axis=1) > 5.0]
            points = point_records(np.arange(len(seen)), seen)
            kfs.append(KeyframeUploadMsg(9, i, pose, FOV, points))
        statuses = [get_update_status(m, kfs, params=PARAMS) for m in maps]
        assert statuses[0] == statuses[1]
        assert statuses[0].verdict is UpdateVerdict.UPDATING
        best = [math.inf, math.inf]
        for _ in range(5):
            for i, m in enumerate(maps):
                t0 = time.perf_counter()
                get_update_status(m, kfs, params=PARAMS)
                best[i] = min(best[i], time.perf_counter() - t0)
        assert best[1] <= 2.0 * best[0], f"20k, 200k: {best[0] * 1e3:.2f}, {best[1] * 1e3:.2f} ms"


class TestRequestCounts:
    def requests(self, alpha):
        metrics = run_scenario(canonical_curve_config(alpha))
        u2 = metrics.user(2)
        requests = sum(ev.get("event") == "shared_map_request" for ev in metrics.traces[2])
        assert requests == u2.map_requests
        return u2.map_requests

    def test_oversharing_strictly_reduces_requests_on_canonical_path(self):
        assert self.requests(1.3) < self.requests(1.0)

    def test_request_count_monotone_in_alpha(self):
        counts = [self.requests(a) for a in (1.0, 1.1, 1.2, 1.3, 1.5, 2.0)]
        assert all(b <= a for a, b in zip(counts, counts[1:]))
        assert counts[-1] == min(counts)

    def test_short_path_single_request(self):
        cfg = two_user_config(length=6.0, landmarks=6000)
        cfg.users[1].alpha = 1.3
        metrics = run_scenario(cfg)
        assert metrics.user(2).map_requests == 1


class TestDefaultRMatch:
    def test_half_of_sampling_spacing(self):
        r = default_r_match(FOV, PARAMS)
        cone_volume = (math.pi / 3) * 20.0**3 * math.tan(FOV / 2) ** 2
        assert r == pytest.approx(0.5 * (cone_volume / 300) ** (1 / 3))
