import math
import sys
import threading

import numpy as np
import pytest

from comap.expansion import Keyframe
from comap.geometry import Pose, compute_fov, cone_from_fov, contains_many
from comap.params import DEFAULT_PARAMS, ProtocolParams
from comap.sim import (
    Scene,
    TrajectorySpec,
    generate_keyframes,
    generate_scene,
    landmark_descriptor,
    mutate_scene,
    observe,
    trajectory_poses,
)

from conftest import (
    SIM_INTR,
    canonical_curve_config,
    overlapping_users_config,
    planted_change_config,
    randomized_overlap_config,
    two_user_config,
)

PARAMS = ProtocolParams()
BOUNDS = [[-20, -20, -15], [60, 20, 20]]


def full_scan_observe(scene, pose, intrinsics, np_max, noise_sigma, rng, counters,
                      keyframe_id=0, params=DEFAULT_PARAMS) -> Keyframe:
    """Reference observation: ``contains_many`` over every scene landmark, a
    dict of counters keyed by landmark id, one descriptor hashed per
    observed landmark."""
    fov = compute_fov(intrinsics)
    cone = cone_from_fov(pose, fov, params.h)
    mask = contains_many(cone, scene.positions)
    ids = scene.landmark_ids[mask]
    pos = scene.positions[mask]
    if len(ids) > np_max:
        v = pos - pose.position
        norm = np.linalg.norm(v, axis=1)
        axial = v @ cone.axis
        with np.errstate(invalid="ignore", divide="ignore"):
            ang = np.arccos(np.clip(np.where(norm > 0, axial / norm, 1.0), -1.0, 1.0))
        pick = np.lexsort((ids, ang))[:np_max]
        pick.sort()
        ids, pos = ids[pick], pos[pick]
    if noise_sigma > 0 and len(ids):
        pos = pos + rng.normal(0.0, noise_sigma, pos.shape)
    counts = np.empty(len(ids), dtype=np.int64)
    for i, lid in enumerate(ids):
        c = counters.get(int(lid), 0) + 1
        counters[int(lid)] = c
        counts[i] = c
    descs = np.frombuffer(
        b"".join(landmark_descriptor(int(i)) for i in ids), dtype=np.uint8
    ).reshape(len(ids), 32) if len(ids) else np.empty((0, 32), dtype=np.uint8)
    return Keyframe(
        keyframe_id=keyframe_id,
        pose=pose,
        fov=fov,
        landmark_ids=ids.copy(),
        positions=np.asarray(pos, dtype=np.float64),
        descriptors=descs,
        observation_counts=counts,
    )


def full_scan_keyframes(spec, scene, intrinsics, np_max=300, noise_sigma=0.05, seed=0,
                        params=DEFAULT_PARAMS) -> list[Keyframe]:
    """``generate_keyframes`` on the reference observation."""
    rng = np.random.default_rng(seed)
    counters: dict[int, int] = {}
    return [
        full_scan_observe(scene, pose, intrinsics, np_max, noise_sigma, rng, counters,
                          keyframe_id=i, params=params)
        for i, pose in enumerate(trajectory_poses(spec))
    ]


def assert_same_keyframes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.keyframe_id, a.pose, a.fov) == (b.keyframe_id, b.pose, b.fov)
        for name in ("landmark_ids", "positions", "descriptors", "observation_counts"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.shape == y.shape, name
            np.testing.assert_array_equal(x, y, err_msg=name)


class TestGenerateScene:
    def test_deterministic_per_seed(self):
        a = generate_scene(7, BOUNDS, 500, [{"label": "c", "count": 40, "sigma": 2.0}])
        b = generate_scene(7, BOUNDS, 500, [{"label": "c", "count": 40, "sigma": 2.0}])
        np.testing.assert_array_equal(a.landmark_ids, b.landmark_ids)
        np.testing.assert_array_equal(a.positions, b.positions)
        c = generate_scene(8, BOUNDS, 500)
        assert not np.array_equal(a.positions[:100], c.positions[:100])

    def test_cluster_bookkeeping(self):
        scene = generate_scene(7, BOUNDS, 500, [{"label": "cars", "count": 50, "center": [10, 0, 2]}])
        assert len(scene.cluster_ids("cars")) == 50
        assert len(scene) == 500
        member = np.isin(scene.landmark_ids, scene.cluster_ids("cars"))
        assert member.sum() == 50
        # Cluster landmarks concentrate around their center.
        spread = scene.positions[member] - np.array([10, 0, 2])
        assert np.linalg.norm(spread, axis=1).max() < 12.0

    def test_positions_within_bounds(self):
        scene = generate_scene(3, BOUNDS, 2000, [{"label": "c", "count": 100, "sigma": 30.0}])
        lo, hi = np.asarray(BOUNDS)
        assert (scene.positions >= lo - 1e-12).all()
        assert (scene.positions <= hi + 1e-12).all()

    def test_unknown_cluster_rejected(self):
        scene = generate_scene(3, BOUNDS, 100)
        with pytest.raises(ValueError):
            scene.cluster_ids("nope")

    def test_cluster_overflow_rejected(self):
        with pytest.raises(ValueError):
            generate_scene(3, BOUNDS, 10, [{"label": "c", "count": 50}])

    def test_canonical_scene_density_feeds_np_max(self):
        """Every cone along the canonical path sees >= np_max-ish candidates."""
        cfg = canonical_curve_config(1.0)
        scene = generate_scene(cfg.scene_seed, cfg.bounds, cfg.landmark_count, cfg.clusters)
        fov = compute_fov(SIM_INTR)
        counts = []
        for pose in trajectory_poses(cfg.users[0].trajectory):
            cone = cone_from_fov(pose, fov, PARAMS.h)
            counts.append(int(contains_many(cone, scene.positions).sum()))
        assert min(counts) >= 150
        assert np.mean(counts) >= 250


class TestMutateScene:
    def scene(self):
        return generate_scene(5, BOUNDS, 400, [{"label": "cars", "count": 50, "center": [5, 0, 1]}])

    def test_remove_shrinks_by_cluster_size(self):
        scene = self.scene()
        out = mutate_scene(scene, "remove_cluster", "cars")
        assert len(out) == len(scene) - 50
        assert not np.isin(out.landmark_ids, scene.cluster_ids("cars")).any()

    def test_remove_then_add_restores(self):
        scene = self.scene()
        out = mutate_scene(mutate_scene(scene, "remove_cluster", "cars"), "add_cluster", "cars")
        np.testing.assert_array_equal(np.sort(out.landmark_ids), np.sort(scene.landmark_ids))
        a = out.positions[np.argsort(out.landmark_ids)]
        b = scene.positions[np.argsort(scene.landmark_ids)]
        np.testing.assert_allclose(a, b)

    def test_bad_operations(self):
        scene = self.scene()
        with pytest.raises(ValueError):
            mutate_scene(scene, "remove_cluster", "ghost")
        with pytest.raises(ValueError):
            mutate_scene(scene, "add_cluster", "cars")  # already present
        with pytest.raises(ValueError):
            mutate_scene(scene, "shuffle", "cars")

    def test_original_scene_unchanged(self):
        scene = self.scene()
        n = len(scene)
        mutate_scene(scene, "remove_cluster", "cars")
        assert len(scene) == n


class TestObserve:
    def pose(self, x=0.0):
        return Pose(x, 0, 1.5, 0.0, math.pi / 2, 0.0)

    def test_empty_scene_gives_empty_keyframe(self):
        scene = Scene(np.empty(0, dtype=np.int64), np.empty((0, 3)), np.asarray(BOUNDS, dtype=float), 0)
        kf = observe(scene, self.pose(), SIM_INTR, 300, 0.05, np.random.default_rng(0),
                     np.zeros(len(scene), dtype=np.int64))
        assert len(kf) == 0

    def test_zero_noise_reproduces_landmark_positions(self):
        scene = generate_scene(5, BOUNDS, 3000)
        kf = observe(scene, self.pose(), SIM_INTR, 10_000, 0.0, np.random.default_rng(0),
                     np.zeros(len(scene), dtype=np.int64))
        rows = {int(i): j for j, i in enumerate(scene.landmark_ids)}
        for lid, pos in zip(kf.landmark_ids, kf.positions):
            np.testing.assert_array_equal(pos, scene.positions[rows[int(lid)]])

    def test_only_in_cone_landmarks(self):
        scene = generate_scene(5, BOUNDS, 3000)
        kf = observe(scene, self.pose(), SIM_INTR, 10_000, 0.0, np.random.default_rng(0),
                     np.zeros(len(scene), dtype=np.int64))
        cone = cone_from_fov(self.pose(), compute_fov(SIM_INTR), PARAMS.h)
        assert contains_many(cone, kf.positions).all()
        inside = contains_many(cone, scene.positions).sum()
        assert len(kf) == inside

    def test_np_max_cap_prefers_axis(self):
        scene = generate_scene(5, BOUNDS, 6000)
        kf_all = observe(scene, self.pose(), SIM_INTR, 10_000, 0.0, np.random.default_rng(0),
                     np.zeros(len(scene), dtype=np.int64))
        kf_cap = observe(scene, self.pose(), SIM_INTR, 50, 0.0, np.random.default_rng(0),
                     np.zeros(len(scene), dtype=np.int64))
        assert len(kf_cap) == 50
        cone = cone_from_fov(self.pose(), kf_cap.fov, PARAMS.h)
        apex, axis = self.pose().position, cone.axis

        def mean_angle(kf):
            v = kf.positions - apex
            return float(np.mean(np.arccos(np.clip((v @ axis) / np.linalg.norm(v, axis=1), -1, 1))))

        assert mean_angle(kf_cap) < mean_angle(kf_all)

    def test_revisit_counter_reaches_five(self):
        scene = generate_scene(5, BOUNDS, 3000)
        counters = np.zeros(len(scene), dtype=np.int64)
        rng = np.random.default_rng(0)
        for i in range(5):
            kf = observe(scene, self.pose(), SIM_INTR, 10_000, 0.0, rng, counters, keyframe_id=i)
        # Same pose five times: every landmark in view was seen five times.
        assert (kf.observation_counts == 5).all()

    def test_descriptors_stable(self):
        assert landmark_descriptor(42) == landmark_descriptor(42)
        assert len(landmark_descriptor(42)) == 32
        assert landmark_descriptor(42) != landmark_descriptor(43)


class TestTrajectory:
    def test_straight_100m_with_5m_spacing(self):
        spec = TrajectorySpec(waypoints=[(0, 0, 1.5, 0.0), (100, 0, 1.5, 0.0)], d_kf=5.0)
        assert len(trajectory_poses(spec)) == 21

    def test_inplace_full_turn(self):
        spec = TrajectorySpec(
            waypoints=[(0, 0, 1.5, 0.0), (0, 0, 1.5, 2 * math.pi)],
            d_kf=5.0,
            theta_kf=math.pi / 4,
        )
        assert len(trajectory_poses(spec)) == 9  # start pose + 8 rotation triggers

    def test_zero_length_path(self):
        spec = TrajectorySpec(waypoints=[(0, 0, 1.5, 0.0), (0, 0, 1.5, 0.0)])
        assert len(trajectory_poses(spec)) == 1

    def test_rotation_trigger_on_moving_path(self):
        # 10 m with a 90 degree sweep: rotation (at 20 deg default) fires
        # more often than the 6 m distance trigger.
        spec = TrajectorySpec(
            waypoints=[(0, 0, 1.5, 0.0), (10, 0, 1.5, math.pi / 2)], d_kf=6.0
        )
        poses = trajectory_poses(spec)
        assert len(poses) == 1 + 4  # 90/20 -> 4 triggers

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            TrajectorySpec(waypoints=[(0, 0, 0, 0)])
        with pytest.raises(ValueError):
            TrajectorySpec(waypoints=[(0, 0, 0, 0), (1, 0, 0, 0)], d_kf=0.0)

    def test_length(self):
        spec = TrajectorySpec(waypoints=[(0, 0, 0, 0), (3, 4, 0, 0), (3, 4, 12, 0)])
        assert spec.length() == pytest.approx(5.0 + 12.0)

    def test_generate_keyframes_deterministic(self):
        scene = generate_scene(5, BOUNDS, 3000)
        spec = TrajectorySpec(waypoints=[(0, 0, 1.5, 0.0), (30, 0, 1.5, 0.0)], d_kf=2.0)
        a = list(generate_keyframes(spec, scene, SIM_INTR, seed=4))
        b = list(generate_keyframes(spec, scene, SIM_INTR, seed=4))
        assert len(a) == len(b) == 16
        for ka, kb in zip(a, b):
            np.testing.assert_array_equal(ka.landmark_ids, kb.landmark_ids)
            np.testing.assert_array_equal(ka.positions, kb.positions)
            assert ka.pose == kb.pose


def scenario_scene(cfg) -> Scene:
    return generate_scene(cfg.scene_seed, cfg.bounds, cfg.landmark_count, cfg.clusters)


def user_streams(cfg, scene, np_max=None):
    """(indexed, reference) keyframe streams per user, in config order, with
    the scene mutations and per-user seeds ``run_scenario`` uses."""
    np_max = cfg.params.np_max if np_max is None else np_max
    for spec in cfg.users:
        for op in spec.scene_ops:
            scene = mutate_scene(scene, op["op"], op["cluster"])
        args = (spec.trajectory, scene, spec.intrinsics)
        kwargs = dict(np_max=np_max, noise_sigma=cfg.noise_sigma,
                      seed=cfg.seed * 7919 + spec.client_id, params=cfg.params)
        yield list(generate_keyframes(*args, **kwargs)), full_scan_keyframes(*args, **kwargs)


class TestIndexedGeneratorMatchesFullScan:
    @pytest.mark.parametrize("builder", [
        two_user_config,
        overlapping_users_config,
        lambda: canonical_curve_config(1.3),
        planted_change_config,
        lambda: randomized_overlap_config(2),
    ], ids=["two_user", "overlapping_users", "canonical_curve", "planted_change",
            "randomized_overlap"])
    def test_every_scenario_builder(self, builder):
        cfg = builder()
        scene = scenario_scene(cfg)
        for got, want in user_streams(cfg, scene):
            assert_same_keyframes(got, want)

    @pytest.mark.parametrize("np_max", [10, 50, 300])
    def test_np_max_caps(self, np_max):
        cfg = two_user_config(length=30.0, landmarks=20000)
        got, want = next(user_streams(cfg, scenario_scene(cfg), np_max=np_max))
        assert max(len(kf) for kf in got) == np_max
        assert_same_keyframes(got, want)

    def test_mutated_scenes_build_their_own_tables(self):
        cfg = planted_change_config()
        scene = scenario_scene(cfg)
        traj = cfg.users[0].trajectory
        list(generate_keyframes(traj, scene, SIM_INTR))
        removed = mutate_scene(scene, "remove_cluster", "cars")
        restored = mutate_scene(removed, "add_cluster", "cars")
        for mutated in (removed, restored):
            assert mutated._index is None and mutated._descriptors is None
            assert_same_keyframes(list(generate_keyframes(traj, mutated, SIM_INTR)),
                                  full_scan_keyframes(traj, mutated, SIM_INTR))
            assert len(mutated.index()) == len(mutated)
            assert mutated.index() is not scene.index()
            assert mutated._descriptors is not scene._descriptors
        assert len(removed) == len(scene) - 55 == len(restored) - 55

    def test_threads_share_one_scene(self):
        # More threads than cores, switching often, fill one scene's
        # descriptor table at once; a row marked filled before it is written
        # would show as a descriptor differing from the reference.
        cfg = two_user_config(length=40.0, landmarks=20000)
        scene = scenario_scene(cfg)
        trajs = [
            TrajectorySpec([(0.0, y, 1.5, hd), (40.0, y, 1.5, hd)], d_kf=1.0)
            for y in (0.0, 2.0) for hd in (0.0, math.pi)
        ]
        got = [None] * len(trajs)
        start = threading.Barrier(len(trajs))

        def run(k):
            start.wait()
            got[k] = list(generate_keyframes(trajs[k], scene, SIM_INTR, seed=k))

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(trajs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k, traj in enumerate(trajs):
            assert_same_keyframes(got[k], full_scan_keyframes(traj, scene, SIM_INTR, seed=k))
        assert scene._described.sum() == len(np.unique(np.concatenate(
            [kf.landmark_ids for stream in got for kf in stream])))
