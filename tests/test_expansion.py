import math

import numpy as np
import pytest

from comap import expansion
from comap.expansion import (
    DegenerateCorrespondencesError,
    Keyframe,
    RigidTransform,
    build_response,
    estimate_alignment,
    inject_redundancy,
    integrate_upload,
    on_session_end,
    partition_keyframe,
)
from comap.geometry import Pose, cone_from_fov, sample_cone
from comap.mapstore import GlobalMap, state_digest
from comap.overlap import OverlapVerdict
from comap.runtime import ClientConfig, client_pipeline
from comap.sim import landmark_descriptor
from comap.wire import (
    EndAckMsg,
    KeyframeUploadMsg,
    OverlapResponseMsg,
    RegisterAckMsg,
    UploadAckMsg,
)

from conftest import (
    SIM_INTR,
    ScriptedTransport,
    insert_point_cloud,
    point_records,
    stored_frames,
)


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """a after b: x -> a(b(x))."""
    return RigidTransform(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def make_keyframe(rng, n=40, pose=None, counts=None, spread=10.0):
    pose = pose or Pose(0, 0, 0)
    ids = np.arange(1, n + 1, dtype=np.int64)
    positions = pose.position + rng.uniform(-spread, spread, (n, 3))
    descs = np.frombuffer(
        b"".join(landmark_descriptor(int(i)) for i in ids), dtype=np.uint8
    ).reshape(n, 32)
    if counts is None:
        counts = rng.integers(1, 10, n)
    return Keyframe(0, pose, 1.38, ids, positions, descs, np.asarray(counts))


def verdict_from(redundant, fresh, r=2.0, t_seen=0.9):
    redundant = np.asarray(redundant, dtype=np.float64).reshape(-1, 3)
    fresh = np.asarray(fresh, dtype=np.float64).reshape(-1, 3)
    k = len(redundant) + len(fresh)
    degree = len(redundant) / k
    return OverlapVerdict(degree, degree > t_seen, redundant, fresh, r, k)


def rand_rigid(rng):
    a, b, c = rng.uniform(-math.pi, math.pi, 3)
    R = Pose(0, 0, 0, a, b, c).rotation_matrix()
    return RigidTransform(R, rng.uniform(-20, 20, 3))


class TestBuildResponse:
    def test_redundant_minority(self, rng):
        v = verdict_from(rng.uniform(0, 1, (10, 3)), rng.uniform(0, 1, (290, 3)))
        resp = build_response(v)
        assert resp.status == 0
        assert len(resp.samples) == 10

    def test_fresh_minority(self, rng):
        v = verdict_from(rng.uniform(0, 1, (290, 3)), rng.uniform(0, 1, (10, 3)))
        resp = build_response(v)
        assert resp.status == 1
        assert len(resp.samples) == 10

    def test_tie_sends_redundant(self, rng):
        v = verdict_from(rng.uniform(0, 1, (150, 3)), rng.uniform(0, 1, (150, 3)))
        resp = build_response(v)
        assert resp.status == 0
        assert len(resp.samples) == 150
        np.testing.assert_allclose(resp.samples, v.redundant_samples.astype(np.float32))

    def test_carries_spacing(self, rng):
        v = verdict_from(rng.uniform(0, 1, (1, 3)), rng.uniform(0, 1, (5, 3)), r=1.789)
        assert build_response(v).r == pytest.approx(1.789, abs=1e-6)


def dense_near_any_sample(positions, samples, r):
    """Reference mask over positions, within r of at least one listed sample,
    from the dense (points x samples x 3) difference array."""
    if not len(positions) or not len(samples):
        return np.zeros(len(positions), dtype=bool)
    s = np.asarray(samples, dtype=np.float64)
    d2 = np.sum((positions[:, None, :] - s[None, :, :]) ** 2, axis=2)
    return np.any(d2 <= r * r, axis=1)


def dense_keep(kf, resp):
    near = dense_near_any_sample(kf.positions, resp.samples, float(resp.r))
    return ~near if resp.status == 0 else near


def keyframe_at(positions):
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    n = len(positions)
    return Keyframe(0, Pose(0, 0, 0), 1.38, np.arange(1, n + 1), positions,
                    np.zeros((n, 32), dtype=np.uint8), np.ones(n, dtype=np.int64))


def assert_mask_of(keep, kf):
    assert keep.dtype == bool and keep.shape == (len(kf),)


class TestPartitionMatchesDenseReference:
    @pytest.mark.parametrize("status", [0, 1])
    def test_points_at_exactly_r_and_just_beyond(self, status):
        # Sample (1, 2, 3) and r = 0.5 are exact in f32; each offset below is
        # exactly r, or r plus the ulp of the coordinate moved past it.
        up, down = np.nextafter(1.5, 2.0), np.nextafter(1.5, 1.0)
        positions = [
            (1.5, 2.0, 3.0), (1.0, 1.5, 3.0), (1.0, 2.0, 3.5), (0.5, 2.0, 3.0),
            (up, 2.0, 3.0), (1.0, down, 3.0), (1.0, 2.0, np.nextafter(3.5, 4.0)),
            (1.0, 2.0, np.nextafter(2.5, 2.0)),
        ]
        kf = keyframe_at(positions)
        resp = OverlapResponseMsg(status, 0.5, [[1.0, 2.0, 3.0], [-4.0, 0.0, 2.0]])
        near = np.array([True] * 4 + [False] * 4)
        keep = partition_keyframe(kf, resp)
        np.testing.assert_array_equal(keep, near == bool(status))
        np.testing.assert_array_equal(keep, dense_keep(kf, resp))

    @pytest.mark.parametrize("status", [0, 1])
    def test_random_rim_points_match(self, status):
        rng = np.random.default_rng(12)
        samples = rng.uniform(-5, 5, (150, 3)).astype(np.float32)
        r = float(np.float32(0.7))
        d = rng.normal(size=(300, 3))
        d /= np.linalg.norm(d, axis=1)[:, None]
        scale = r * (1.0 + rng.integers(-4, 5, (300, 1)) * 1e-16)
        kf = keyframe_at(samples[rng.integers(0, 150, 300)] + d * scale)
        resp = OverlapResponseMsg(status, r, samples)
        keep = partition_keyframe(kf, resp)
        np.testing.assert_array_equal(keep, dense_keep(kf, resp))
        assert 0 < keep.sum() < len(kf)

    @pytest.mark.parametrize("status", [0, 1])
    def test_empty_samples_and_empty_keyframes(self, status, rng):
        kf = make_keyframe(rng)
        for resp in (OverlapResponseMsg(status, 2.0, np.empty((0, 3))),
                     OverlapResponseMsg(status, 2.0, kf.positions[:5])):
            for k in (kf, Keyframe.empty(0, kf.pose, kf.fov)):
                keep = partition_keyframe(k, resp)
                assert_mask_of(keep, k)
                np.testing.assert_array_equal(keep, dense_keep(k, resp))
        assert partition_keyframe(kf, OverlapResponseMsg(status, 2.0, np.empty((0, 3)))).sum() \
            == (len(kf) if status == 0 else 0)


class TestPartitionKeyframe:
    def test_empty_redundant_list_keeps_everything(self, rng):
        kf = make_keyframe(rng)
        resp = OverlapResponseMsg(0, 2.0, np.empty((0, 3)))
        keep = partition_keyframe(kf, resp)
        assert_mask_of(keep, kf)
        assert keep.all()

    def test_full_redundant_cover_removes_everything(self, rng):
        kf = make_keyframe(rng, spread=3.0)
        resp = OverlapResponseMsg(0, 10.0, kf.positions[:5])
        assert not partition_keyframe(kf, resp).any()

    def test_empty_fresh_list_keeps_nothing(self, rng):
        kf = make_keyframe(rng)
        resp = OverlapResponseMsg(1, 2.0, np.empty((0, 3)))
        assert not partition_keyframe(kf, resp).any()

    def test_status_paths_are_complements(self, rng):
        # Partition under S=0 with the redundant list and under S=1 with the
        # fresh list of the same verdict: surviving sets must partition the
        # keyframe when every point is near exactly one class.
        kf = make_keyframe(rng, n=60)
        cone = cone_from_fov(kf.pose, kf.fov, 20.0)
        samples, r = sample_cone(cone, 200, seed=4)
        redundant_mask = np.zeros(200, dtype=bool)
        redundant_mask[:90] = True
        v = verdict_from(samples[redundant_mask], samples[~redundant_mask], r=r)
        keep_s0 = partition_keyframe(kf, OverlapResponseMsg(0, r, v.redundant_samples))
        keep_s1 = partition_keyframe(kf, OverlapResponseMsg(1, r, v.fresh_samples))
        # s0 removes near-redundant; s1 keeps near-fresh. A point far from
        # all samples survives s0 but not s1; points near both lists differ.
        near_redundant = dense_near_any_sample(kf.positions, v.redundant_samples, r)
        near_fresh = dense_near_any_sample(kf.positions, v.fresh_samples, r)
        np.testing.assert_array_equal(keep_s0, ~near_redundant)
        np.testing.assert_array_equal(keep_s1, near_fresh)

    def test_output_subset_of_input(self, rng):
        # The selection is a mask over the keyframe's own points.
        kf = make_keyframe(rng)
        resp = OverlapResponseMsg(0, 3.0, rng.uniform(-10, 10, (30, 3)))
        keep = partition_keyframe(kf, resp)
        assert_mask_of(keep, kf)
        assert 0 < keep.sum() < len(kf)

    def test_invalid_spacing_rejected(self, rng):
        kf = make_keyframe(rng)
        with pytest.raises(ValueError):
            partition_keyframe(kf, OverlapResponseMsg(0, 0.0, np.empty((0, 3))))


def reference_inject_redundancy(kf_pruned: Keyframe, kf_orig: Keyframe) -> Keyframe:
    """The id-based injection the masks replaced: a point of the original
    keyframe is kept when its id is among the pruned keyframe's, and a
    dropped point is re-added when observed strictly more often than the
    original's mean."""
    if len(kf_orig) == 0:
        return kf_pruned
    kept = np.isin(kf_orig.landmark_ids, kf_pruned.landmark_ids)
    mean_count = float(kf_orig.observation_counts.mean())
    inject = ~kept & (kf_orig.observation_counts > mean_count)
    return kf_orig.subset(kept | inject)


def reference_selection(kf, resp):
    """(uploaded ids, kept, injected, injected_ids) as the id-based device
    derived them: a pruned keyframe, a re-injected one, and the injected
    ids as a set difference."""
    pruned = kf.subset(dense_keep(kf, resp))
    final = reference_inject_redundancy(pruned, kf)
    injected_ids = sorted(set(final.landmark_ids.tolist()) - set(pruned.landmark_ids.tolist()))
    return final.landmark_ids.tolist(), len(pruned), len(final) - len(pruned), injected_ids


def pipeline_selection(kf, resp):
    """(uploaded ids, kept, injected, injected_ids) of ``client_pipeline``
    answering ``kf``'s overlap query with ``resp``."""
    transport = ScriptedTransport([
        RegisterAckMsg(1), resp, UploadAckMsg(1), EndAckMsg(1, len(kf), 0.0),
    ])
    result = client_pipeline(ClientConfig(1, SIM_INTR), [kf], transport)
    (upload,) = [m for m in transport.sent if isinstance(m, KeyframeUploadMsg)]
    (event,) = [ev for ev in result.trace if ev["event"] == "partition"]
    return (upload.points["id"].tolist(), event["kept"], event["injected"],
            event["injected_ids"])


class TestInjectRedundancy:
    def test_equal_counts_inject_nothing(self, rng):
        kf = make_keyframe(rng, n=20, counts=np.full(20, 3))
        inject = inject_redundancy(kf, np.arange(20) < 5)
        assert_mask_of(inject, kf)
        assert not inject.any()

    def test_heavily_observed_point_comes_back(self, rng):
        kf = make_keyframe(rng, n=3, counts=[1, 1, 10])
        keep = np.array([True, True, False])  # the 10-count point pruned
        np.testing.assert_array_equal(inject_redundancy(kf, keep), [False, False, True])

    def test_injected_points_strictly_above_mean(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 80))
            kf = make_keyframe(rng, n=n, counts=rng.integers(1, 12, n))
            keep = rng.uniform(0, 1, n) < 0.5
            inject = inject_redundancy(kf, keep)
            # Only dropped points come back, and each is above the mean.
            assert not (inject & keep).any()
            assert (kf.observation_counts[inject] > kf.observation_counts.mean()).all()
            np.testing.assert_array_equal(
                inject | keep, keep | (kf.observation_counts > kf.observation_counts.mean())
            )

    def test_preserves_original_order(self, rng):
        kf = make_keyframe(rng, n=10, counts=[9, 1, 9, 1, 9, 1, 9, 1, 9, 1])
        keep = np.zeros(10, dtype=bool)
        inject = inject_redundancy(kf, keep)
        np.testing.assert_array_equal(kf.subset(keep | inject).landmark_ids, kf.landmark_ids[::2])

    def test_empty_keyframe_injects_nothing(self):
        kf = Keyframe.empty(0, Pose(0, 0, 0), 1.38)
        inject = inject_redundancy(kf, np.zeros(0, dtype=bool))
        assert_mask_of(inject, kf)

    def test_pipeline_matches_the_id_based_reference(self, rng):
        # Distinct ids: the uploaded ids in their order, the kept and
        # injected counts and the injected ids all equal the id-based
        # derivation's.
        seen = np.zeros(3, dtype=int)
        for trial in range(40):
            n = int(rng.integers(0, 120))
            kf = make_keyframe(rng, n=n, counts=rng.integers(1, 12, n), spread=8.0)
            kf.landmark_ids = rng.permutation(np.arange(1000, 1000 + 4 * n))[:n]
            kf.keyframe_id = trial
            # The listed samples imply an overlap degree of at most 0.9, the
            # threshold, so the keyframe takes the upload path.
            status = int(rng.integers(0, 2))
            k = n or 300
            listed = int(rng.integers(0, 0.9 * k + 1) if status == 0
                         else rng.integers(0.1 * k + 1, k + 1))
            resp = OverlapResponseMsg(status, float(rng.uniform(0.5, 4.0)),
                                      rng.uniform(-8, 8, (listed, 3)))
            got = pipeline_selection(kf, resp)
            assert got == reference_selection(kf, resp)
            seen += [got[1] > 0, got[2] > 0, 0 < len(got[0]) < n]
        assert seen.min() >= 10, seen

    def test_repeated_id_is_decided_per_position(self):
        # Id 7 appears twice: the first copy is kept, the second dropped
        # with a count at the mean. The id-based derivation re-adds the
        # dropped copy because the id was kept elsewhere; the masks decide
        # by position and count, so it stays dropped. A dropped copy above
        # the mean comes back even though another copy was kept.
        kf = keyframe_at([(0, 0, 0), (9, 0, 0), (0, 9, 0), (9, 9, 0)])
        kf.landmark_ids = np.array([7, 7, 5, 5])
        kf.observation_counts = np.array([1, 3, 3, 5])  # mean 3
        resp = OverlapResponseMsg(0, 1.0, [(9, 0, 0), (9, 9, 0)])
        keep = partition_keyframe(kf, resp)
        np.testing.assert_array_equal(keep, [True, False, True, False])
        np.testing.assert_array_equal(inject_redundancy(kf, keep), [False, False, False, True])
        assert pipeline_selection(kf, resp) == ([7, 5, 5], 2, 1, [5])
        assert reference_selection(kf, resp) == ([7, 7, 5, 5], 2, 2, [])


class TestIntegrateUpload:
    def upload_msg(self, rng, n=15, client=4):
        ids = 100 + np.arange(n)
        points = point_records(
            ids, rng.uniform(-5, 5, (n, 3)),
            [np.frombuffer(landmark_descriptor(i), np.uint8) for i in ids], 2,
        )
        return KeyframeUploadMsg(client, 7, Pose(1, 2, 0.5, yaw=0.3), 1.38, points)

    def test_identity_transform_stores_positions_verbatim(self, rng):
        gmap = GlobalMap()
        msg = self.upload_msg(rng)
        fid = integrate_upload(gmap, msg, RigidTransform.identity())
        frame = stored_frames(gmap)[fid]
        assert frame.client_id == 4 and frame.keyframe_id == 7
        rows = gmap.rows_for_ids(msg.points["id"])
        np.testing.assert_allclose(
            gmap.point_positions[rows], msg.points["position"].astype(np.float64)
        )

    def test_pure_translation(self, rng):
        gmap = GlobalMap()
        msg = self.upload_msg(rng)
        t = np.array([10.0, -4.0, 2.0])
        fid = integrate_upload(gmap, msg, RigidTransform(np.eye(3), t))
        rows = gmap.rows_for_ids(msg.points["id"])
        np.testing.assert_allclose(
            gmap.point_positions[rows], msg.points["position"].astype(np.float64) + t
        )
        np.testing.assert_allclose(
            stored_frames(gmap)[fid].pose.position, msg.pose.position + t
        )

    def test_pipeline_matches_hash_set_oracle(self, rng):
        gmap = GlobalMap()
        oracle = {}
        for kf_id in range(12):
            ids = rng.choice(np.arange(200, 400), size=30, replace=False)
            points = point_records(ids, rng.uniform(-8, 8, (len(ids), 3)))
            msg = KeyframeUploadMsg(1, kf_id, Pose(0, 0, 0), 1.38, points)
            integrate_upload(gmap, msg, RigidTransform.identity())
            for i in ids:
                oracle[int(i)] = oracle.get(int(i), 0) + 1
        assert set(gmap.points.tolist()) == set(oracle)
        for pid, n in oracle.items():
            assert gmap.point_observation_counts[gmap.rows_for_ids([pid])[0]] == n

    def test_rotation_maps_pose_axis(self, rng):
        gmap = GlobalMap()
        msg = self.upload_msg(rng)
        T = rand_rigid(rng)
        fid = integrate_upload(gmap, msg, T)
        from comap.geometry import optical_axis

        np.testing.assert_allclose(
            optical_axis(stored_frames(gmap)[fid].pose),
            T.rotation @ optical_axis(msg.pose),
            atol=1e-9,
        )

    def test_partition_then_integrate_respects_redundant_zones(self, rng):
        # No stored point from a partitioned upload may fall within r of a
        # REDUNDANT sample of its own response (before injection).
        for _ in range(20):
            kf = make_keyframe(rng, n=50)
            samples = rng.uniform(-10, 10, (40, 3))
            r = float(rng.uniform(0.5, 3.0))
            resp = OverlapResponseMsg(0, r, samples)
            pruned = kf.subset(partition_keyframe(kf, resp))
            gmap = GlobalMap()
            fid = integrate_upload(
                gmap, pruned.to_upload_msg(1), RigidTransform.identity()
            )
            stored = gmap.point_positions[gmap.rows_for_ids(stored_frames(gmap)[fid].ids)]
            if len(stored):
                d2 = np.sum(
                    (stored[:, None, :] - resp.samples.astype(np.float64)[None, :, :]) ** 2,
                    axis=2,
                )
                # float32 wire quantization of the sample list shifts
                # distances by well under a millimeter
                assert d2.min() > (float(resp.r) - 1e-3) ** 2


class TestEstimateAlignment:
    def test_already_aligned_pairs_give_identity(self, rng):
        pts = rng.uniform(-10, 10, (40, 3))
        est = estimate_alignment(list(zip(pts, pts)))
        np.testing.assert_allclose(est.transform.rotation, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(est.transform.translation, 0, atol=1e-9)
        assert est.residual_rms < 1e-12

    def test_recovers_random_rigid_transform(self, rng):
        for _ in range(25):
            T = rand_rigid(rng)
            local = rng.uniform(-10, 10, (int(rng.integers(4, 60)), 3))
            est = estimate_alignment(list(zip(local, T.apply(local))))
            np.testing.assert_allclose(est.transform.rotation, T.rotation, atol=1e-9)
            np.testing.assert_allclose(est.transform.translation, T.translation, atol=1e-8)
            assert est.residual_rms < 1e-9

    def test_noise_accuracy_monte_carlo(self, rng):
        errors = []
        for _ in range(100):
            T = rand_rigid(rng)
            local = rng.uniform(-10, 10, (100, 3))
            noisy = T.apply(local) + rng.normal(0, 0.01, (100, 3))
            est = estimate_alignment(list(zip(local, noisy)))
            errors.append(np.linalg.norm(est.transform.translation - T.translation))
        assert float(np.mean(errors)) < 0.01

    def test_too_few_pairs(self, rng):
        pts = rng.uniform(-1, 1, (2, 3))
        with pytest.raises(DegenerateCorrespondencesError):
            estimate_alignment(list(zip(pts, pts)))

    def test_collinear_pairs(self):
        local = np.array([[float(i), 0.0, 0.0] for i in range(10)])
        with pytest.raises(DegenerateCorrespondencesError):
            estimate_alignment(list(zip(local, local)))

    def test_equivariance_under_precomposition(self, rng):
        # Pre-composing the local side with G recovers transform o G^-1.
        T = rand_rigid(rng)
        G = rand_rigid(rng)
        local = rng.uniform(-10, 10, (50, 3))
        glob = T.apply(local)
        est = estimate_alignment(list(zip(G.apply(local), glob)))
        expect = compose(T, G.inverse())
        np.testing.assert_allclose(est.transform.rotation, expect.rotation, atol=1e-9)
        np.testing.assert_allclose(est.transform.translation, expect.translation, atol=1e-8)

    def test_rigid_transform_validation(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 2.0, np.zeros(3))
        reflect = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            RigidTransform(reflect, np.zeros(3))

    def test_is_identity_is_settled_at_construction(self, rng):
        assert RigidTransform.identity().is_identity is True
        assert RigidTransform(np.eye(3), [0.0, -0.0, 0.0]).is_identity is True
        assert RigidTransform(np.eye(3), [0.0, 1e-300, 0.0]).is_identity is False
        T = rand_rigid(rng)
        assert T.is_identity is False
        assert RigidTransform(T.rotation, np.zeros(3)).is_identity is False
        assert "is_identity" not in repr(T)


class TestSessionEnd:
    def test_default_hook_leaves_map_unchanged(self, rng):
        gmap = GlobalMap()
        insert_point_cloud(gmap, rng.uniform(-10, 10, (100, 3)))
        before = state_digest(gmap)
        report = on_session_end(gmap, client_id=1)
        assert state_digest(gmap) == before
        assert not report.map_changed

    def test_no_hook_hashes_nothing(self, rng, monkeypatch):
        gmap = GlobalMap()
        insert_point_cloud(gmap, rng.uniform(-10, 10, (20, 3)))

        def forbidden(m):
            raise AssertionError("state_digest called without a hook")

        monkeypatch.setattr(expansion, "state_digest", forbidden)
        report = on_session_end(gmap, client_id=1)
        assert not report.map_changed
        assert report.point_count == 20

    def test_counts_cover_all_clients(self, rng):
        gmap = GlobalMap()
        insert_point_cloud(gmap, rng.uniform(-10, 10, (60, 3)), client_id=1)
        insert_point_cloud(gmap, rng.uniform(-10, 10, (60, 3)), client_id=2, start_id=1000)
        report = on_session_end(gmap, client_id=1)
        assert report.frame_count == len(gmap.frames)
        assert report.point_count == len(gmap.points)
