import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from comap.spatial import KdTree, _search_radius, build_point_kdtree, linear_radius_search


def assert_same_ids(a, b):
    np.testing.assert_array_equal(np.sort(a), np.sort(b))


def brute_nearest(pts, center, k):
    """Reference kNN: stable argsort of the oracle's squared distances."""
    return np.argsort(np.sum((pts - center) ** 2, axis=1), kind="stable")[:k]


class TestRadiusSearch:
    def test_empty_tree(self):
        tree = build_point_kdtree([])
        assert len(tree.radius_search([0, 0, 0], 10.0)) == 0

    def test_zero_radius_hits_exact_point(self, rng):
        pts = rng.uniform(-5, 5, (50, 3))
        tree = build_point_kdtree(pts)
        hits = tree.radius_search(pts[17], 0.0)
        assert 17 in hits

    def test_duplicates_all_returned(self):
        pts = np.array([[1.0, 2.0, 3.0]] * 4 + [[9.0, 9.0, 9.0]])
        tree = build_point_kdtree(pts)
        np.testing.assert_array_equal(tree.radius_search([1, 2, 3], 0.5), [0, 1, 2, 3])
        np.testing.assert_array_equal(tree.radius_search([1, 2, 3], 0.0), [0, 1, 2, 3])

    def test_negative_radius_rejected(self):
        tree = build_point_kdtree(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            tree.radius_search([0, 0, 0], -1.0)
        with pytest.raises(ValueError):
            tree.any_within(np.zeros((2, 3)), -0.1)
        with pytest.raises(ValueError):
            tree.pairs_within(-0.1)

    def test_matches_linear_scan_randomized(self, rng):
        # >= 1000 randomized instances against the brute-force oracle; the
        # hits come back in ascending order, exactly as the oracle's.
        cases = 0
        for _ in range(25):
            n = int(rng.integers(1, 400))
            scale = float(rng.uniform(0.5, 30))
            pts = rng.uniform(-scale, scale, (n, 3))
            tree = build_point_kdtree(pts)
            for _ in range(40):
                center = rng.uniform(-scale * 1.2, scale * 1.2, 3)
                r = float(rng.uniform(0, scale))
                np.testing.assert_array_equal(
                    tree.radius_search(center, r), linear_radius_search(pts, center, r)
                )
                cases += 1
        assert cases >= 1000

    def test_boundary_point_is_inclusive(self):
        pts = np.array([[3.0, 0.0, 0.0], [4.0, 0.0, 0.0]])
        tree = build_point_kdtree(pts)
        np.testing.assert_array_equal(tree.radius_search([0.0, 0.0, 0.0], 3.0), [0])
        np.testing.assert_array_equal(tree.radius_search([0.0, 0.0, 0.0], 4.0), [0, 1])

    @given(
        pts=arrays(np.float64, (37, 3), elements=st.floats(-100, 100)),
        center=arrays(np.float64, (3,), elements=st.floats(-120, 120)),
        r=st.floats(0, 150),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_linear_scan_hypothesis(self, pts, center, r):
        tree = build_point_kdtree(pts)
        assert_same_ids(tree.radius_search(center, r), linear_radius_search(pts, center, r))


class TestAnyWithin:
    def test_agrees_with_radius_search(self, rng):
        pts = rng.uniform(-20, 20, (500, 3))
        tree = build_point_kdtree(pts)
        centers = rng.uniform(-25, 25, (200, 3))
        mask = tree.any_within(centers, 2.5)
        for c, m in zip(centers, mask):
            assert (len(linear_radius_search(pts, c, 2.5)) > 0) == m

    def test_allowed_mask_matches_linear_scan(self, rng):
        for _ in range(20):
            pts = rng.uniform(-20, 20, (int(rng.integers(1, 600)), 3))
            centers = rng.uniform(-25, 25, (200, 3))
            allowed = rng.uniform(0, 1, len(pts)) < rng.uniform(0, 1)
            r = float(rng.uniform(0, 6))
            d2 = np.sum((centers[:, None] - pts[None]) ** 2, axis=2) <= r * r
            tree = KdTree(pts)
            np.testing.assert_array_equal(tree.any_within(centers, r), d2.any(axis=1))
            np.testing.assert_array_equal(
                tree.any_within(centers, r, allowed), d2[:, allowed].any(axis=1)
            )

    def test_boundary_and_duplicates_with_allowed_mask(self):
        pts = np.array([[3.0, 0.0, 0.0], [4.0, 0.0, 0.0]] + [[1.0, 2.0, 3.0]] * 3)
        tree = KdTree(pts)
        assert tree.any_within(np.zeros((1, 3)), 3.0).all()
        assert not tree.any_within(np.zeros((1, 3)), 3.0, allowed=np.arange(5) != 0).any()
        assert tree.any_within(np.zeros((1, 3)), 4.0, allowed=np.arange(5) != 0).all()
        assert tree.any_within([[1.0, 2.0, 3.0]], 0.0, allowed=np.arange(5) == 4).all()

    def test_empty_inputs(self):
        tree = build_point_kdtree(np.zeros((0, 3)))
        assert tree.any_within(np.zeros((4, 3)), 1.0).sum() == 0
        assert tree.any_within(np.zeros((4, 3)), 1.0, np.zeros(0, dtype=bool)).sum() == 0
        tree = build_point_kdtree(np.zeros((5, 3)))
        assert len(tree.any_within(np.zeros((0, 3)), 1.0)) == 0


class TestIndexQueries:
    """``KdTree.radius_search`` and ``KdTree.any_within`` equal the linear scan."""

    def test_ball_indices_match_linear_scan(self, rng):
        # Snapped coordinates and integer radii put many points exactly on
        # the sphere, where the inclusive boundary must agree with the oracle.
        for _ in range(20):
            n = int(rng.integers(1, 400))
            pts = np.round(rng.uniform(-6, 6, (n, 3)))
            tree = KdTree(pts)
            for _ in range(40):
                center = np.round(rng.uniform(-7, 7, 3))
                r = float(rng.integers(0, 6))
                want = linear_radius_search(pts, center, r)
                np.testing.assert_array_equal(tree.radius_search(center, r), want)
                np.testing.assert_array_equal(
                    tree.any_within(center[None], r), [len(want) > 0]
                )

    def test_empty_inputs_and_negative_radius(self):
        assert not KdTree(np.zeros((0, 3))).any_within(np.zeros((4, 3)), 1.0).any()
        assert len(KdTree(np.zeros((5, 3))).any_within(np.zeros((0, 3)), 1.0)) == 0
        assert len(KdTree(np.zeros((0, 3))).radius_search([0, 0, 0], 1.0)) == 0
        with pytest.raises(ValueError):
            KdTree(np.zeros((3, 3))).any_within(np.zeros((2, 3)), -0.1)
        with pytest.raises(ValueError):
            KdTree(np.zeros((3, 3))).radius_search([0, 0, 0], -1.0)


class TestQueryNearest:
    def test_matches_argsort(self, rng):
        pts = rng.uniform(-10, 10, (300, 3))
        tree = build_point_kdtree(pts)
        for _ in range(50):
            c = rng.uniform(-12, 12, 3)
            np.testing.assert_array_equal(tree.query_nearest(c, 8), brute_nearest(pts, c, 8))

    def test_k_larger_than_tree(self):
        pts = np.eye(3)
        tree = build_point_kdtree(pts)
        assert len(tree.query_nearest([0, 0, 0], 10)) == 3
        assert tree.query_nearest(np.zeros((4, 3)), 10).shape == (4, 3)
        assert tree.query_nearest([0, 0, 0], 1).shape == (1,)

    def test_batch_matches_stable_argsort(self, rng):
        # Snapped coordinates make many exact ties, duplicates included; the
        # batch must break them by index, as the stable argsort does.
        for _ in range(20):
            n = int(rng.integers(1, 120))
            pts = np.round(rng.uniform(-3, 3, (n, 3)))
            centers = np.vstack([pts[: n // 2], np.round(rng.uniform(-4, 4, (30, 3)))])
            k = int(rng.integers(1, 12))
            want = np.array([brute_nearest(pts, c, k) for c in centers])
            np.testing.assert_array_equal(KdTree(pts).query_nearest(centers, k), want)

    def test_duplicates_ordered_by_index(self):
        pts = np.array([[5.0, 0.0, 0.0]] + [[1.0, 0.0, 0.0]] * 4 + [[-1.0, 0.0, 0.0]])
        tree = KdTree(pts)
        np.testing.assert_array_equal(tree.query_nearest([0.0, 0.0, 0.0], 3), [1, 2, 3])
        np.testing.assert_array_equal(
            tree.query_nearest([[1.0, 0.0, 0.0], [6.0, 0.0, 0.0]], 2), [[1, 2], [0, 1]]
        )

    def test_empty_tree_and_invalid_k(self):
        tree = KdTree(np.zeros((0, 3)))
        assert tree.query_nearest([0, 0, 0], 3).shape == (0,)
        assert tree.query_nearest(np.zeros((2, 3)), 3).shape == (2, 0)
        with pytest.raises(ValueError):
            KdTree(np.zeros((3, 3))).query_nearest([0, 0, 0], 0)


class TestPairsWithin:
    def test_matches_brute_force_pair_scan(self, rng):
        for _ in range(20):
            n = int(rng.integers(0, 300))
            pts = rng.uniform(-10, 10, (n, 3))
            r = float(rng.uniform(0, 3))
            d2 = np.sum((pts[:, None] - pts[None]) ** 2, axis=2) <= r * r
            want = np.argwhere(np.triu(d2, k=1))
            np.testing.assert_array_equal(KdTree(pts).pairs_within(r).reshape(-1, 2), want)

    def test_pair_at_exactly_r_counts(self):
        pts = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0], [0.0, 0.0, 5.5], [0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(KdTree(pts).pairs_within(5.0), [[0, 1], [0, 3], [1, 3]])
        np.testing.assert_array_equal(KdTree(pts).pairs_within(0.0), [[0, 3]])


class TestSearchRadius:
    """The padded candidate radius, for float scalars and for arrays alike."""

    @staticmethod
    def padded(r):
        return r * (1.0 + 1e-9) + 1e-9

    def test_python_float(self):
        for r in (0.0, -0.0, 1e-300, 0.5, 2.25, 1e6):
            got = _search_radius(r)
            assert type(got) is float
            assert got == self.padded(r)

    def test_numpy_float_scalar(self):
        for r in (np.float64(0.0), np.float64(3.7), np.float32(1.5)):
            got = _search_radius(r)
            assert type(got) is type(r)
            assert got == self.padded(r)

    def test_array(self):
        r = np.array([0.0, 0.25, 7.0])
        np.testing.assert_array_equal(_search_radius(r), self.padded(r))

    @pytest.mark.parametrize(
        "r", [-1e-300, -1.0, np.float64(-2.0), np.float32(-0.5), np.array([1.0, -1.0]), -3]
    )
    def test_negative_rejected(self, r):
        with pytest.raises(ValueError):
            _search_radius(r)

    def test_nan_passes_through(self):
        assert np.isnan(_search_radius(float("nan")))
        assert np.isnan(_search_radius(np.float64("nan")))
        assert np.isnan(_search_radius(np.array([1.0, np.nan]))).tolist() == [False, True]


class TestSublinearScaling:
    def test_sublinear_growth(self, rng):
        """Query time grows far slower than the point count (a linear scan
        grows about tenfold per decade)."""
        best = {}
        for m in (1_000, 10_000, 100_000):
            tree = build_point_kdtree(rng.uniform(0, 100, (m, 3)))
            queries = rng.uniform(0, 100, (100, 3))
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                for q in queries:
                    tree.radius_search(q, 2.0)
                times.append(time.perf_counter() - t0)
            best[m] = min(times)
        # Ten-fold data growth must not grow query time anywhere near ten-fold.
        assert best[10_000] < best[1_000] * 5
        assert best[100_000] < best[10_000] * 5
