import math

import numpy as np
import pytest

from comap.geometry import Pose, cone_from_fov, sample_cone
from comap.mapstore import GlobalMap, select_neighbors
from comap.overlap import (
    OverlapVerdict,
    assess_overlap,
    classify_samples,
    overlap_from_response,
)
from comap.params import ProtocolParams

from conftest import insert_point_cloud, stored_frames

FOV = 1.3812336489575836
PARAMS = ProtocolParams()


def freshness_ratio(verdicts) -> float:
    """1 minus the mean overlap degree across a trajectory's assessments."""
    degrees = [v.overlap_degree if isinstance(v, OverlapVerdict) else float(v) for v in verdicts]
    if not degrees:
        raise ValueError("freshness ratio needs at least one verdict")
    return 1.0 - float(np.mean(degrees))


def fill_cone_fraction(rng, pose, fov, h, volume_fraction, density):
    """Uniform points over the front `volume_fraction` of the cone volume."""
    cone = cone_from_fov(pose, fov, h)
    n = int(density * cone.volume() * volume_fraction)
    u = rng.uniform(0.0, volume_fraction, n)
    axial = h * np.cbrt(u)
    rho = np.sqrt(rng.uniform(0, 1, n))
    theta = rng.uniform(0, 2 * math.pi, n)
    radial = rho * axial * math.tan(fov / 2)
    local = np.stack([radial * np.cos(theta), radial * np.sin(theta), axial], axis=1)
    R = pose.rotation_matrix()
    return pose.position + local @ R.T, cone


class TestAssessOverlap:
    def test_empty_map_all_fresh(self):
        verdict = assess_overlap(GlobalMap(), Pose(0, 0, 0), FOV, k=200, seed=5)
        assert verdict.overlap_degree == 0.0
        assert not verdict.seen
        assert verdict.fresh_count == 200
        assert verdict.redundant_count == 0

    def test_self_keyframe_marks_pose_seen(self):
        # A keyframe whose points are the cone samples themselves: re-query
        # with the same seed finds a map point at distance zero per sample.
        gmap = GlobalMap(np_max=300)
        q = Pose(4, 5, 1.5, yaw=0.7)
        cone = cone_from_fov(q, FOV, PARAMS.h)
        samples, r = sample_cone(cone, 300, seed=77)
        insert_point_cloud(gmap, samples, frame_pose=q, fov=FOV)
        verdict = assess_overlap(gmap, q, FOV, k=300, seed=77)
        assert verdict.overlap_degree >= 0.9
        assert verdict.seen

    def test_half_covered_cone_within_band(self, rng):
        q = Pose(0, 0, 0)
        density = 1.2 / (2.67**3)  # a bit above one point per r^3 cube
        pts, cone = fill_cone_fraction(rng, q, FOV, 20.0, 0.5, density)
        gmap = GlobalMap(np_max=300)
        insert_point_cloud(gmap, pts, frame_pose=q, fov=FOV, frames_of=300)
        verdict = assess_overlap(gmap, q, FOV, k=300, seed=3)
        assert 0.35 <= verdict.overlap_degree <= 0.65

        # Independent Monte Carlo oracle: 10x volume-uniform samples.
        mc = np.random.default_rng(99)
        u = mc.uniform(0, 1, 3000)
        axial = 20.0 * np.cbrt(u)
        rho = np.sqrt(mc.uniform(0, 1, 3000))
        theta = mc.uniform(0, 2 * math.pi, 3000)
        radial = rho * axial * math.tan(FOV / 2)
        probes = np.stack([radial * np.cos(theta), radial * np.sin(theta), axial], axis=1)
        d2 = np.sum((probes[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        covered = float(np.mean(np.any(d2 <= verdict.r**2, axis=1)))
        assert verdict.overlap_degree == pytest.approx(covered, abs=0.07)

    def test_classification_matches_linear_scan_exactly(self, rng):
        for trial in range(30):
            gmap = GlobalMap(np_max=300)
            q = Pose(*rng.uniform(-5, 5, 3), yaw=rng.uniform(-3, 3))
            pts, cone = fill_cone_fraction(rng, q, FOV, 20.0, rng.uniform(0.2, 1.0), 0.03)
            if len(pts):
                insert_point_cloud(gmap, pts, frame_pose=q, fov=FOV)
            k = int(rng.integers(10, 400))
            seed = int(rng.integers(1 << 30))
            verdict = assess_overlap(gmap, q, FOV, k=k, seed=seed)

            samples, r = sample_cone(cone_from_fov(q, FOV, PARAMS.h), k, seed)
            neighbors = select_neighbors(gmap, q, FOV, PARAMS.t_d)
            if len(neighbors.point_positions):
                d2 = np.sum(
                    (samples[:, None, :] - neighbors.point_positions[None, :, :]) ** 2, axis=2
                )
                redundant = np.any(d2 <= r * r, axis=1)
            else:
                redundant = np.zeros(k, dtype=bool)
            np.testing.assert_array_equal(verdict.redundant_samples, samples[redundant])
            np.testing.assert_array_equal(verdict.fresh_samples, samples[~redundant])

    def test_monotone_in_map_growth(self, rng):
        q = Pose(0, 0, 0)
        gmap = GlobalMap(np_max=300)
        last = 0.0
        for step in range(8):
            pts, _ = fill_cone_fraction(rng, q, FOV, 20.0, 0.12, 0.02)
            insert_point_cloud(gmap, pts + rng.uniform(-1, 1, 3), frame_pose=q, fov=FOV,
                               start_id=10_000 * (step + 1))
            verdict = assess_overlap(gmap, q, FOV, k=250, seed=11)
            assert verdict.overlap_degree >= last - 1e-12
            last = verdict.overlap_degree
        assert last > 0.0

    def test_scale_invariance_power_of_two(self, rng):
        q = Pose(0, 0, 0)
        pts, _ = fill_cone_fraction(rng, q, FOV, 20.0, 0.7, 0.03)
        base_params = ProtocolParams(h=20.0)
        verdicts = {}
        for s in (1.0, 2.0, 0.5):
            gmap = GlobalMap(np_max=300)
            insert_point_cloud(gmap, pts * s, frame_pose=q, fov=FOV)
            verdicts[s] = assess_overlap(
                gmap, q, FOV, k=300, seed=21, params=ProtocolParams(h=20.0 * s)
            )
        assert verdicts[1.0].seen == verdicts[2.0].seen == verdicts[0.5].seen
        assert verdicts[1.0].redundant_count == verdicts[2.0].redundant_count
        assert verdicts[1.0].redundant_count == verdicts[0.5].redundant_count

    def test_seed_stability_at_k1000(self, rng):
        q = Pose(0, 0, 0)
        pts, _ = fill_cone_fraction(rng, q, FOV, 20.0, 0.5, 0.06)
        gmap = GlobalMap(np_max=300)
        insert_point_cloud(gmap, pts, frame_pose=q, fov=FOV)
        degrees = [
            assess_overlap(gmap, q, FOV, k=1000, seed=s).overlap_degree for s in range(12)
        ]
        assert float(np.std(degrees)) < 0.05

    def test_invariants_of_verdict(self, rng):
        gmap = GlobalMap(np_max=300)
        pts, _ = fill_cone_fraction(rng, Pose(0, 0, 0), FOV, 20.0, 0.4, 0.03)
        insert_point_cloud(gmap, pts, frame_pose=Pose(0, 0, 0), fov=FOV)
        v = assess_overlap(gmap, Pose(0, 0, 0), FOV, k=321, seed=5, t_seen=0.9)
        assert v.redundant_count + v.fresh_count == v.sample_count == 321
        assert v.overlap_degree == v.redundant_count / 321
        assert v.seen == (v.overlap_degree > 0.9)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            assess_overlap(GlobalMap(), Pose(0, 0, 0), FOV, k=0, seed=1)
        with pytest.raises(ValueError):
            assess_overlap(GlobalMap(), Pose(0, 0, 0), FOV, k=10, seed=1, t_seen=1.5)


def unit_vectors(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def point_at_distance(center, r, direction):
    """A point whose squared distance to ``center``, summed as the oracle sums
    it, equals ``r * r`` exactly."""
    base = center + r * direction
    steps = np.spacing(base)
    for i in range(-64, 65):
        for j in range(-64, 65):
            p = base + steps * np.array([i, j, 0])
            if np.sum((center - p) ** 2) == r * r:
                return p
    raise AssertionError(f"no point at exactly {r} from {center}")


class TestMaskedClassification:
    """The map's point index holds every point, but only points of gated
    frames may make a sample redundant: not the excluded client's, not frames
    beyond t_d, not frames facing away, whether their rows sit in the tree or
    still in the side buffer."""

    KINDS = ("gated", "excluded", "far", "away")

    def test_matches_brute_force_over_gated_points(self):
        rng = np.random.default_rng(2411)
        masked_in = {(kind, wave): 0 for kind in self.KINDS[1:] for wave in ("tree", "pending")}
        for _ in range(6):
            q = Pose(*rng.uniform(-20, 20, 3), 0.0, math.pi / 2, rng.uniform(-3, 3))
            k, seed = 300, int(rng.integers(1 << 30))
            samples, r = sample_cone(cone_from_fov(q, FOV, PARAMS.h), k, seed)
            far = Pose(*(q.position + 1.01 * PARAMS.t_d * unit_vectors(rng, 1)[0]),
                       0.0, math.pi / 2, q.yaw)
            away = Pose(q.x, q.y, q.z, 0.0, math.pi / 2, q.yaw + math.pi)
            # (client, frame pose) per kind; queries exclude client 1.
            frames = {"gated": (2, q), "excluded": (1, q), "far": (2, far), "away": (2, away)}
            # Group of each sample: a kind of frame placing a point near it,
            # or (the last group) none.
            group = rng.choice(len(self.KINDS) + 1, k, p=[0.1] * len(self.KINDS) + [0.6])
            gmap = GlobalMap(np_max=300)

            def place(kind, points):
                client, pose = frames[kind]
                ids = insert_point_cloud(gmap, points, client_id=client, frame_pose=pose, fov=FOV)
                return gmap.rows_for_ids(ids)

            def near(idx):
                offsets = unit_vectors(rng, len(idx)) * rng.uniform(0, 0.95, (len(idx), 1))
                return samples[idx] + r * offsets

            waves = {"tree": {}, "pending": {}}
            for g, kind in enumerate(self.KINDS):
                mine = np.flatnonzero(group == g)
                waves["tree"][kind] = mine[:-3]
                place(kind, near(mine[:-3]))
            gmap._point_index.rebuild()
            pending = []
            for g, kind in enumerate(self.KINDS):
                waves["pending"][kind] = np.flatnonzero(group == g)[-3:]
                pending.append(place(kind, near(waves["pending"][kind])))

            # Gated points at exactly r, and just beyond it, from two samples
            # that no other point covers.
            d2_all = np.sum((samples[:, None] - gmap.point_positions[None]) ** 2, axis=2)
            isolated = np.flatnonzero(d2_all.min(axis=1) > r * r)
            b_in = isolated[0]
            apart = np.linalg.norm(samples[isolated] - samples[b_in], axis=1) > 3 * r
            assert apart.any()
            b_out = isolated[np.argmax(apart)]
            direction = unit_vectors(rng, 1)[0]
            boundary = point_at_distance(samples[b_in], r, direction)
            outside = samples[b_out] + r * (1 + 1e-12) * direction
            assert np.sum((samples[b_out] - outside) ** 2) > r * r
            pending.append(place("gated", np.stack([boundary, outside])))
            pending = np.concatenate(pending)
            assert set(pending.tolist()) <= set(gmap._point_index._pending_rows)

            verdict = assess_overlap(gmap, q, FOV, k=k, seed=seed, params=PARAMS,
                                     exclude_client=1)
            neighbors = select_neighbors(gmap, q, FOV, PARAMS.t_d, exclude_client=1)
            assert set(neighbors.frame_ids) == {
                fid for fid, f in stored_frames(gmap).items() if f.client_id == 2 and f.pose == q
            }
            d2 = np.sum((samples[:, None] - neighbors.point_positions[None]) ** 2, axis=2)
            redundant = np.any(d2 <= r * r, axis=1)
            np.testing.assert_array_equal(verdict.redundant_samples, samples[redundant])
            np.testing.assert_array_equal(verdict.fresh_samples, samples[~redundant])
            assert redundant[b_in] and not redundant[b_out]

            # Count the samples only an ungated point covers: there the mask decides.
            covered = np.any(
                np.sum((samples[:, None] - gmap.point_positions[None]) ** 2, axis=2) <= r * r,
                axis=1,
            )
            for wave, kinds in waves.items():
                for kind, idx in kinds.items():
                    if kind != "gated":
                        masked_in[kind, wave] += int(np.sum(covered[idx] & ~redundant[idx]))
        assert all(masked_in.values()), masked_in


class TestClassifySamples:
    def test_empty_neighborhood(self):
        mask = classify_samples(np.zeros((5, 3)), np.empty((0, 3)), 1.0)
        assert not mask.any()

    def test_boundary_sample_counts_redundant(self):
        samples = np.array([[0.0, 0.0, 3.0]])
        neighbor = np.array([[0.0, 0.0, 0.0]])
        assert classify_samples(samples, neighbor, 3.0).all()


class TestOverlapFromResponse:
    def test_consistent_with_status_bit(self):
        assert overlap_from_response(0, 30, 300) == pytest.approx(0.1)
        assert overlap_from_response(1, 30, 300) == pytest.approx(0.9)


class TestFreshnessRatio:
    def test_all_redundant(self):
        assert freshness_ratio([1.0, 1.0, 1.0]) == 0.0

    def test_all_fresh(self):
        assert freshness_ratio([0.0, 0.0]) == 1.0

    def test_mixed(self):
        assert freshness_ratio([0.2, 0.6]) == pytest.approx(0.6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            freshness_ratio([])
