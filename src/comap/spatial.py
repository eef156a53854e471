"""The one spatial index over 3D points: ``KdTree``, a thin class over a
``scipy.spatial.cKDTree``.

Every query keeps the linear oracle's arithmetic. The tree only proposes
candidates at a slightly padded radius; the verdict is
``sum((p - c)**2) <= r*r``, so a point at exactly ``r`` counts the same as in
``linear_radius_search``. Nearest-neighbour lists order by that squared
distance and then by index, exactly as a stable argsort does. Only
``candidates_within`` returns the padded candidates unfiltered, for callers
that decide on them with a test of their own.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.spatial import cKDTree


def _search_radius(r):
    """Radius (or array of radii) at which the tree is asked for candidates:
    a little over ``r`` so the tree's own rounding cannot drop a point at
    exactly ``r``. A NaN radius passes through unchecked."""
    # A float scalar, the common case, skips the array round trip.
    negative = r < 0 if isinstance(r, (float, np.floating)) else (np.asarray(r) < 0).any()
    if negative:
        raise ValueError(f"radius must be non-negative, got {r}")
    return r * (1.0 + 1e-9) + 1e-9


def _flatten(lists) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated indices of per-center candidate lists, and their lengths."""
    counts = np.fromiter((len(b) for b in lists), np.int64, len(lists))
    idx = np.fromiter(itertools.chain.from_iterable(lists), np.int64, int(counts.sum()))
    return idx, counts


class KdTree:
    """Static index over an (N, 3) point array, shaped for fast (re)builds."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=np.float64)
        if pts.size == 0:
            pts = pts.reshape(0, 3)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"expected (N, 3) points, got shape {pts.shape}")
        self._tree = cKDTree(pts, leafsize=32, balanced_tree=False, compact_nodes=False)

    def __len__(self) -> int:
        return self._tree.n

    @property
    def points(self) -> np.ndarray:
        return self._tree.data

    def _d2(self, idx: np.ndarray, centers: np.ndarray) -> np.ndarray:
        return np.sum((self._tree.data[idx] - centers) ** 2, axis=-1)

    def radius_search(self, center, r: float) -> np.ndarray:
        """Ascending indices of all points with distance <= r from center."""
        center = np.asarray(center, dtype=np.float64)
        idx = np.asarray(self._tree.query_ball_point(center, _search_radius(r)), dtype=np.int64)
        return np.sort(idx[self._d2(idx, center) <= r * r])

    def any_within(self, centers, r: float, allowed=None) -> np.ndarray:
        """Boolean mask: which of the (M, 3) centers have a point within r.

        With ``allowed`` (a boolean mask over the points) only those points
        count. Each center's nearest candidate settles it when allowed; only
        the rest pay for a full ball query.
        """
        r_search = _search_radius(r)
        centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
        found = np.zeros(len(centers), dtype=bool)
        n = self._tree.n
        if not n or not len(centers):
            return found
        r2 = r * r
        _, nearest = self._tree.query(centers, k=1, distance_upper_bound=r_search)
        cand = np.flatnonzero(nearest < n)
        near = nearest[cand]
        ok = self._d2(near, centers[cand]) <= r2
        if allowed is not None:
            ok &= allowed[near]
        found[cand[ok]] = True
        rest = cand[~ok]
        if len(rest):
            idx, counts = _flatten(self._tree.query_ball_point(centers[rest], r_search))
            owner = np.repeat(rest, counts)
            ok = self._d2(idx, centers[owner]) <= r2
            if allowed is not None:
                ok &= allowed[idx]
            found[owner[ok]] = True
        return found

    def query_nearest(self, centers, k: int = 1) -> np.ndarray:
        """Indices of the k nearest points, closest first, ties by index.

        One center of shape (3,) gives a 1-D array; an (M, 3) batch gives
        one row per center. Fewer than k points give all of them.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        centers = np.asarray(centers, dtype=np.float64)
        batch = centers.reshape(-1, 3)
        n = self._tree.n
        k = min(k, n)
        if not k or not len(batch):
            out = np.empty((len(batch), k), dtype=np.int64)
            return out if centers.ndim > 1 else out.reshape(-1)
        # The tree's k + 1 nearest, ordered by exact squared distance and
        # then index. A center is settled when its (k+1)-th lies beyond the
        # padded ball about its k-th distance: every point the tree did not
        # return is at least that far, so none ties with or beats the k-th.
        m = min(k + 1, n)
        nn = self._tree.query(batch, k=m)[1].reshape(len(batch), m)
        d2 = self._d2(nn, batch[:, None, :])
        order = np.lexsort((nn, d2))
        nn, d2 = np.take_along_axis(nn, order, axis=1), np.take_along_axis(d2, order, axis=1)
        out = nn[:, :k]
        kth = np.sqrt(d2[:, k - 1])
        tied = np.flatnonzero(d2[:, k] <= _search_radius(kth) ** 2) if m > k else []
        if len(tied):
            # A ball query at the k-th distance finds every point tied with it.
            balls = self._tree.query_ball_point(batch[tied], _search_radius(kth[tied]))
            idx, counts = _flatten(balls)
            owner = np.repeat(tied, counts)
            order = np.lexsort((idx, self._d2(idx, batch[owner]), owner))
            rank = np.arange(len(idx)) - np.repeat(np.cumsum(counts) - counts, counts)
            out[tied] = idx[order][rank < k].reshape(len(tied), k)
        return out if centers.ndim > 1 else out[0]

    def candidates_within(self, centers, radii) -> list[np.ndarray]:
        """Unfiltered radius-query candidates of each center, from one ball
        query: per center i, the indices, in no particular order, of every
        point within ``radii[i]`` of it and possibly of points a little
        beyond it. The caller decides on them.
        """
        centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
        if not self._tree.n:
            return [np.empty(0, dtype=np.int64) for _ in centers]
        balls = self._tree.query_ball_point(centers, _search_radius(radii), return_sorted=False)
        return [np.asarray(b, dtype=np.int64) for b in balls]

    def pairs_within(self, r: float) -> np.ndarray:
        """Lexicographically sorted (P, 2) index pairs i < j within r."""
        pairs = self._tree.query_pairs(_search_radius(r), output_type="ndarray")
        pairs = pairs[self._d2(pairs[:, 0], self._tree.data[pairs[:, 1]]) <= r * r]
        return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))].astype(np.int64)


def build_point_kdtree(points) -> KdTree:
    """Spatial index over the given points answering exact radius queries."""
    return KdTree(points)


def linear_radius_search(points: np.ndarray, center, r: float) -> np.ndarray:
    """Brute-force reference for radius_search (identical arithmetic)."""
    if r < 0:
        raise ValueError(f"radius must be non-negative, got {r}")
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if not len(points):
        return np.empty(0, dtype=np.int64)
    center = np.asarray(center, dtype=np.float64)
    d2 = np.sum((points - center) ** 2, axis=1)
    return np.nonzero(d2 <= r * r)[0].astype(np.int64)
