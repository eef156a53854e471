"""Server-side global map: frames, points, and incremental spatial indices.

Points live only in row-indexed columns (ids, float64 positions, 32-byte
descriptors, observation counts); ids are found by binary search along the
point rows in ascending id order, into which new rows are merged. Frames
live only in a frame table (id, client, keyframe id, six pose floats, fov,
and the optical axis derived from the pose) whose rows hold strictly
ascending frame ids, so a frame is refused unless its id is above the last
stored one. Which frames list which points is one append-only column of
point rows, one per listed id in frame order: each frame's listings are a
contiguous run of it, delimited by a per-frame offset column, so a frame's
point ids are a slice, a point's owners are the frames whose runs list it,
and its observation count is their number. Frames enter through one batch
append: ``insert_frame`` passes one frame, ``load_snapshot`` every frame of
a snapshot at once. Two persistent ``spatial.KdTree`` indices, one over
point positions and one over frame positions, are positional: a row is the
position's place in its table. Each absorbs a batch through a side buffer
of the rows after its tree's and rebuilds once the buffer exceeds 10% of
the tree size, so a load builds each index once. Single-center radius
queries scan the buffer linearly; batch queries (overlap classification, k
nearest neighbors) search it through a small tree of its own, built on
demand and kept until the next insert. Nearest-neighbor lists merge the
tree's and the buffer's by (squared distance, row).

Reads are query-local: shared slices and update checks take the points of
a cone from the candidates of a radius query of the point index
(``point_candidate_rows``, one query for every cone of a window) and their
neighbors from ``nearest_point_rows``, not from a scan of every point.
Neighbor gathering never sorts: the gated frames' runs are gathered
by their offsets and deduplicated in a boolean mask over the point table,
and overlap assessment queries the persistent point index once, counting
only points whose row is set in that mask.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .geometry import Pose, optical_axis
from .spatial import KdTree, _search_radius
from .wire import FRAME_DTYPE, pack_runs

SNAPSHOT_MAGIC = b"MPPS"
SNAPSHOT_VERSION = 2

# Modeled per-slot sizes for the constant full-capacity frame footprint.
FEATURE_SLOT_BYTES = 40
POINT_SLOT_BYTES = 56
FRAME_HEADER_BYTES = 96


class DuplicateFrameError(ValueError):
    """Raised when a frame id is not above the last stored or batched one, a
    repeat included; the map is left unchanged."""


class FrameTooLargeError(ValueError):
    """Raised when a frame carries more points than the configured capacity."""


class SnapshotError(ValueError):
    """Raised when a snapshot file is malformed."""


@dataclass(frozen=True)
class MapFrame:
    """A frame to store, as ``insert_frame`` takes it: ``ids`` are its point
    ids in the frame's order, repeats included."""

    frame_id: int
    client_id: int
    keyframe_id: int
    pose: Pose
    fov: float
    ids: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ids", np.asarray(self.ids, dtype=np.int64).reshape(-1))

    @property
    def np_new(self) -> int:
        return len(self.ids)


@dataclass
class NeighborSet:
    """Frames near a query pose (distance and axis-angle gated) and their points."""

    frame_ids: list[int]
    point_ids: np.ndarray
    point_positions: np.ndarray


def _reserve(columns: tuple, need: int, floor: int) -> tuple:
    """The columns, reallocated to twice ``need`` rows when they hold fewer:
    growth stays amortized, and a bulk load leaves room for the inserts
    that follow it."""
    if need <= len(columns[0]):
        return columns
    cap = max(floor, 2 * need)
    return tuple(np.resize(c, (cap,) + c.shape[1:]) for c in columns)


# Every index starts from this tree; a KdTree is never modified once built.
_EMPTY_TREE = KdTree(np.empty((0, 3)))
# The side buffer is folded into a rebuilt tree once it holds more than this
# share of the tree's points, and more than _MIN_PENDING points.
_REBUILD_FRACTION = 0.1
_MIN_PENDING = 16


class _IncrementalIndex:
    """KdTree plus side buffer over positions added in order: row i is the
    i-th position added, and rows below ``len(self._tree)`` are in the tree."""

    def __init__(self):
        self._tree = _EMPTY_TREE
        self._pending_pos = np.empty((0, 3), dtype=np.float64)
        self._pending_tree = None  # over _pending_pos; dropped on every add

    def __len__(self) -> int:
        return len(self._tree) + len(self._pending_pos)

    def add(self, positions: np.ndarray):
        """Index a batch of positions as the next rows; rebuild once the side
        buffer outgrows its share."""
        self._pending_pos = np.concatenate([self._pending_pos, positions])
        self._pending_tree = None
        if len(self._pending_pos) > max(_MIN_PENDING, _REBUILD_FRACTION * len(self._tree)):
            self.rebuild()

    def rebuild(self):
        self._tree = KdTree(self.positions())
        self._pending_pos = np.empty((0, 3), dtype=np.float64)
        self._pending_tree = None

    def positions(self) -> np.ndarray:
        """Every indexed position, by row."""
        return np.concatenate([self._tree.points, self._pending_pos])

    def radius_rows(self, center, r: float) -> np.ndarray:
        """Ascending rows with distance <= r; identical arithmetic to the linear oracle."""
        center = np.asarray(center, dtype=np.float64)
        d2 = np.sum((self._pending_pos - center) ** 2, axis=1)
        # Tree rows precede buffer rows, and each part's hits ascend.
        return np.concatenate(
            [self._tree.radius_search(center, r), len(self._tree) + np.flatnonzero(d2 <= r * r)]
        )

    def candidate_rows(self, centers: np.ndarray, radii: np.ndarray) -> list[np.ndarray]:
        """Per center, the rows of every point within its radius and possibly
        of some a little beyond it, in no particular order; the caller
        decides on them.

        The tree answers every center in one ball query and the buffer in
        one distance pass, both at the padded radii.
        """
        centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
        radii = np.asarray(radii, dtype=np.float64)
        idx, counts = self._tree.candidates_within(centers, radii)
        rows = np.split(idx, np.cumsum(counts)[:-1])[: len(counts)]
        if not len(self._pending_pos):
            return rows
        d2 = np.sum((self._pending_pos - centers[:, None, :]) ** 2, axis=-1)
        near = d2 <= _search_radius(radii)[:, None] ** 2
        n = len(self._tree)
        return [np.concatenate([r, n + np.flatnonzero(b)]) for r, b in zip(rows, near)]

    def query_nearest(self, centers: np.ndarray, k: int) -> np.ndarray:
        """Rows of each center's k nearest points, closest first, ties by row.

        The tree's and the buffer's k nearest are merged by (squared
        distance, row). The tree's ties by position are ties by row, so the
        result equals ``KdTree.query_nearest`` over all indexed points in
        row order.
        """
        centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
        if not len(self._pending_pos):
            return self._tree.query_nearest(centers, k)
        if self._pending_tree is None:
            self._pending_tree = KdTree(self._pending_pos)
        rows, d2 = [], []
        for tree, first_row in ((self._tree, 0), (self._pending_tree, len(self._tree))):
            nn = tree.query_nearest(centers, k)
            rows.append(first_row + nn)
            d2.append(np.sum((tree.points[nn] - centers[:, None, :]) ** 2, axis=-1))
        rows, d2 = np.concatenate(rows, axis=1), np.concatenate(d2, axis=1)
        order = np.lexsort((rows, d2))
        return np.take_along_axis(rows, order, axis=1)[:, : min(k, len(self))]

    def any_within(self, centers: np.ndarray, r: float, allowed: np.ndarray) -> np.ndarray:
        """Per center: does a point whose row is set in ``allowed`` lie within r?"""
        n = len(self._tree)
        found = self._tree.any_within(centers, r, allowed[:n])
        todo = np.flatnonzero(~found)
        if len(todo) and allowed[n:].any():
            if self._pending_tree is None:
                self._pending_tree = KdTree(self._pending_pos)
            found[todo] = self._pending_tree.any_within(centers[todo], r, allowed[n:])
        return found


class GlobalMap:
    """The server's shared map."""

    def __init__(self, np_max: int = 300):
        self.np_max = np_max
        # Point table (row-indexed): the one store of map points.
        self._pt_ids = np.empty(0, dtype=np.int64)
        self._pt_pos = np.empty((0, 3), dtype=np.float64)
        self._pt_desc = np.empty((0, 32), dtype=np.uint8)
        self._pt_obs = np.empty(0, dtype=np.int64)
        self._pt_count = 0
        self._by_id = np.empty(0, dtype=np.int64)  # point rows in ascending id order
        self._point_index = _IncrementalIndex()
        # Frame table (row-indexed, frame ids strictly ascending): the one
        # store of frames. Pose columns are x, y, z, roll, pitch, yaw;
        # _fr_axis is the optical axis derived from them, for the gate.
        self._fr_ids = np.empty(0, dtype=np.int64)
        self._fr_client = np.empty(0, dtype=np.int64)
        self._fr_keyframe = np.empty(0, dtype=np.int64)
        self._fr_pose = np.empty((0, 6), dtype=np.float64)
        self._fr_fov = np.empty(0, dtype=np.float64)
        self._fr_axis = np.empty((0, 3), dtype=np.float64)
        self._fr_count = 0
        self._frame_index = _IncrementalIndex()
        # Memberships: the point row of each listed id, appended in frame
        # order. Frame row r lists _mem_pt[_fr_off[r] : _fr_off[r + 1]].
        self._fr_off = np.zeros(1, dtype=np.int64)
        self._mem_pt = np.empty(0, dtype=np.int64)

    # -- views ----------------------------------------------------------

    @property
    def version(self) -> int:
        """Changes whenever what a read can see changes: the frame count.

        The map is append-only. ``insert_frame`` is its only mutator, and
        each call appends exactly one frame, so two reads at the same
        version see the same points, frames and memberships.
        """
        return self._fr_count

    @property
    def points(self) -> np.ndarray:
        """Read-only ids of the stored points, in row order."""
        ids = self._pt_ids[: self._pt_count]
        ids.flags.writeable = False
        return ids

    @property
    def frames(self) -> np.ndarray:
        """Read-only ids of the stored frames, ascending, in row order."""
        ids = self._fr_ids[: self._fr_count]
        ids.flags.writeable = False
        return ids

    @property
    def point_positions(self) -> np.ndarray:
        return self._pt_pos[: self._pt_count]

    @property
    def point_descriptors(self) -> np.ndarray:
        return self._pt_desc[: self._pt_count]

    @property
    def point_observation_counts(self) -> np.ndarray:
        return self._pt_obs[: self._pt_count]

    def memberships(self) -> tuple[np.ndarray, np.ndarray]:
        """(frame row, point row) per listed id, in insertion order, derived
        from the frame extents."""
        off = self._fr_off[: self._fr_count + 1]
        return np.repeat(np.arange(self._fr_count), np.diff(off)), self._mem_pt[: off[-1]]

    def frame_headers(self, rows, counts, dtype=FRAME_DTYPE) -> np.ndarray:
        """The ``rows`` as ``dtype`` frame headers with ``counts`` ids each."""
        heads = np.empty(len(rows), dtype=dtype)
        heads["frame_id"] = self._fr_ids[rows]
        heads["client_id"] = self._fr_client[rows]
        heads["keyframe_id"] = self._fr_keyframe[rows]
        heads["pose"] = self._fr_pose[rows]
        heads["fov"] = self._fr_fov[rows]
        heads["id_count"] = counts
        return heads

    def listings(self, point_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(frame row, point row) of each listed id whose point row is set in
        ``point_mask``, in insertion order, so the frame rows ascend."""
        off = self._fr_off[: self._fr_count + 1]
        pt = self._mem_pt[: off[-1]]
        at = np.flatnonzero(point_mask[pt])
        return np.searchsorted(off, at, side="right") - 1, pt[at]

    def owner_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(point row, frame id), once per frame listing the point, ordered
        by point id, then frame id."""
        fr, pt = self.memberships()
        fids = self._fr_ids[fr]
        order = np.lexsort((fids, self._pt_ids[pt]))
        pt, fids = pt[order], fids[order]
        keep = np.ones(len(pt), dtype=bool)
        keep[1:] = (pt[1:] != pt[:-1]) | (fids[1:] != fids[:-1])
        return pt[keep], fids[keep]

    def any_point_within(self, centers: np.ndarray, r: float, rows: np.ndarray) -> np.ndarray:
        """Per center: is one of the point-table ``rows`` within r (inclusive)?

        Answered by the persistent point index, not a tree over ``rows``.
        """
        centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
        if not len(rows):
            return np.zeros(len(centers), dtype=bool)
        allowed = np.zeros(self._pt_count, dtype=bool)
        allowed[rows] = True
        return self._point_index.any_within(centers, r, allowed)

    def point_candidate_rows(self, centers, radii) -> list[np.ndarray]:
        """Per center, the rows of the points within its radius, plus perhaps
        a few just beyond it, in no particular order, from one query of the
        point index; the caller decides on the rows."""
        return self._point_index.candidate_rows(centers, radii)

    def nearest_point_rows(self, centers, k: int) -> np.ndarray:
        """Per center, the rows of its k nearest points, closest first,
        ties by row, from the persistent point index."""
        return self._point_index.query_nearest(centers, k)

    def rows_for_ids(self, ids) -> np.ndarray:
        """Point-table row of each id; -1 where the id is not stored."""
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        if not self._pt_count:
            return np.full(len(ids), -1, dtype=np.int64)
        at = np.searchsorted(self._pt_ids[: self._pt_count], ids, sorter=self._by_id)
        rows = self._by_id[np.minimum(at, self._pt_count - 1)]
        return np.where(self._pt_ids[rows] == ids, rows, -1)

    def allocate_frame_id(self) -> int:
        """The id after the last stored frame's (1 in an empty map); the
        caller inserts it before allocating again."""
        return int(self.frames[-1]) + 1 if self._fr_count else 1

    def frame_footprint_bytes(self) -> int:
        """Modeled memory of one stored frame; constant by full-capacity reservation."""
        return (
            FRAME_HEADER_BYTES
            + 1000 * FEATURE_SLOT_BYTES
            + self.np_max * POINT_SLOT_BYTES
        )

    def memory_estimate_bytes(self) -> int:
        return (
            self._fr_count * self.frame_footprint_bytes()
            + self._pt_count * POINT_SLOT_BYTES
        )

    # -- mutation ---------------------------------------------------------

    def _append_frames(self, frames: list[MapFrame], positions, descriptors):
        """Store frames and integrate their points: the map's one construction path.

        ``positions`` and ``descriptors`` align with the frames' ids
        concatenated in order. The batch is checked whole before anything
        is stored, so a rejected batch leaves the map unchanged. The result
        equals appending the frames one at a time: new ids take rows in
        order of first appearance over the batch, keeping their first
        position and descriptor, and each point's observation count grows
        by the number of distinct frames listing it.
        """
        lengths = [f.np_new for f in frames]
        ids = np.concatenate([f.ids for f in frames] + [np.empty(0, dtype=np.int64)])
        last = int(self.frames[-1]) if self._fr_count else None
        for f in frames:
            fid = f.frame_id
            if last is not None and fid <= last:
                raise DuplicateFrameError(f"frame {fid} is not above frame {last}")
            last = fid
            if f.np_new > self.np_max:
                raise FrameTooLargeError(
                    f"frame {fid} carries {f.np_new} points, capacity {self.np_max}"
                )
            if not 0.0 < f.fov < math.pi:
                raise ValueError(f"frame {fid} has fov {f.fov!r}, outside (0, pi)")
        n = len(ids)
        positions = np.asarray(positions, dtype=np.float64)
        if positions.shape != (n, 3):
            raise ValueError(f"frames list {n} points, positions have shape {positions.shape}")
        if not np.isfinite(positions).all():
            j = int(np.argmin(np.isfinite(positions).all(axis=1)))
            raise ValueError(f"point {ids[j]} has invalid position {positions[j]}")
        if descriptors is None:
            descriptors = np.zeros((n, 32), dtype=np.uint8)
        descriptors = np.asarray(descriptors, dtype=np.uint8).reshape(n, 32)
        if not frames:
            return

        # One stable sort groups each id's memberships in frame order, so a
        # repeat within one frame sits next to the pair it repeats.
        frame_of = np.repeat(np.arange(len(frames)), lengths)
        perm = np.argsort(ids, kind="stable")
        sorted_ids, sorted_frames = ids[perm], frame_of[perm]
        head = np.ones(n, dtype=bool)
        head[1:] = sorted_ids[1:] != sorted_ids[:-1]
        distinct_pair = head.copy()
        distinct_pair[1:] |= sorted_frames[1:] != sorted_frames[:-1]
        group = np.cumsum(head) - 1
        listings = np.bincount(group[distinct_pair])
        first = perm[head]
        uniq_rows = self.rows_for_ids(sorted_ids[head])
        new = np.flatnonzero(uniq_rows < 0)
        new = new[np.argsort(first[new])]
        uniq_rows[new] = self._pt_count + np.arange(len(new))
        rows = np.empty(n, dtype=np.int64)
        rows[perm] = uniq_rows[group]

        if len(new):
            src = first[new]
            self._append_points(ids[src], positions[src], descriptors[src])
        self._pt_obs[uniq_rows] += listings

        base, k = self._fr_count, len(frames)
        (
            self._fr_ids, self._fr_client, self._fr_keyframe, self._fr_pose, self._fr_fov,
            self._fr_axis, self._fr_off,
        ) = _reserve(
            (self._fr_ids, self._fr_client, self._fr_keyframe, self._fr_pose, self._fr_fov,
             self._fr_axis, self._fr_off),
            base + k + 1, 16,
        )
        added = slice(base, base + k)
        self._fr_ids[added] = [f.frame_id for f in frames]
        self._fr_client[added] = [f.client_id for f in frames]
        self._fr_keyframe[added] = [f.keyframe_id for f in frames]
        self._fr_pose[added] = [f.pose.as_array() for f in frames]
        self._fr_fov[added] = [f.fov for f in frames]
        self._fr_axis[added] = [optical_axis(f.pose) for f in frames]
        m = self._fr_off[base]
        self._fr_off[base + 1 : base + k + 1] = m + np.cumsum(lengths)
        self._fr_count += k
        self._frame_index.add(self._fr_pose[added, :3])
        (self._mem_pt,) = _reserve((self._mem_pt,), m + n, 256)
        self._mem_pt[m : m + n] = rows

    def _append_points(self, ids: np.ndarray, positions: np.ndarray, descriptors: np.ndarray):
        """New rows with observation count 0, indexed and put in id order in one batch."""
        base, k = self._pt_count, len(ids)
        order = np.argsort(ids)
        at = np.searchsorted(self._pt_ids[:base], ids[order], sorter=self._by_id)
        self._by_id = np.insert(self._by_id, at, base + order)
        self._pt_ids, self._pt_pos, self._pt_desc, self._pt_obs = _reserve(
            (self._pt_ids, self._pt_pos, self._pt_desc, self._pt_obs), base + k, 64
        )
        self._pt_ids[base : base + k] = ids
        self._pt_pos[base : base + k] = positions
        self._pt_desc[base : base + k] = descriptors
        self._pt_obs[base : base + k] = 0
        self._pt_count += k
        self._point_index.add(positions)


def insert_frame(map: GlobalMap, frame: MapFrame, positions, descriptors=None) -> int:
    """Store a frame and integrate its points into the global map.

    ``positions`` (and ``descriptors``, 32 bytes each, zero when omitted)
    align with ``frame.ids``. An id already stored keeps its position and
    descriptor, and its observation count grows by one. An id repeated
    within the frame is counted once, with its first position. Raises
    DuplicateFrameError for a frame id not above the last stored one,
    FrameTooLargeError for more than ``np_max`` ids, and ValueError for
    positions that do not align with the ids or are not finite, or for a
    fov outside (0, pi); the map is then unchanged.
    """
    map._append_frames([frame], positions, descriptors)
    return frame.frame_id


def _gated_frames(
    map: GlobalMap, q: Pose, q_fov: float, t_d: float, exclude_client: int | None
) -> np.ndarray:
    """Frame-table rows passing the distance and axis-angle gates."""
    if not map._fr_count:
        return np.empty(0, dtype=np.int64)
    qpos = q.position
    cand = map._frame_index.radius_rows(qpos, t_d)
    if exclude_client is not None and len(cand):
        cand = cand[map._fr_client[cand] != exclude_client]
    if not len(cand):
        return cand
    dist = np.linalg.norm(map._fr_pose[cand, :3] - qpos, axis=1)
    cand = cand[dist < t_d]
    if len(cand):
        qaxis = optical_axis(q)
        cosang = np.clip(map._fr_axis[cand] @ qaxis, -1.0, 1.0)
        angles = np.arccos(cosang)
        cand = cand[angles < 0.5 * (q_fov + map._fr_fov[cand])]
    return cand


def neighbor_point_rows(
    map: GlobalMap,
    q: Pose,
    q_fov: float,
    t_d: float,
    exclude_client: int | None = None,
) -> np.ndarray:
    """Deduplicated point-table rows of the gated neighbor frames."""
    return _union_rows(map, _gated_frames(map, q, q_fov, t_d, exclude_client))


def _union_rows(map: GlobalMap, frame_rows) -> np.ndarray:
    """Ascending, deduplicated point-table rows of the given frame rows."""
    frame_rows = np.asarray(frame_rows, dtype=np.int64)
    if not len(frame_rows):
        return np.empty(0, dtype=np.int64)
    # Each frame's memberships are one run of the point-row column.
    starts = map._fr_off[frame_rows]
    lengths = map._fr_off[frame_rows + 1] - starts
    at = np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())
    mask = np.zeros(map._pt_count, dtype=bool)
    mask[map._mem_pt[at]] = True
    return np.flatnonzero(mask)


def select_neighbors(
    map: GlobalMap,
    q: Pose,
    q_fov: float,
    t_d: float,
    exclude_client: int | None = None,
) -> NeighborSet:
    """Frames within ``t_d`` of the query whose optical axes overlap its fov.

    A frame k qualifies when dist(q, k) < t_d and angle(q, k) < (q_fov + fov_k)/2.
    Returns the deduplicated union of the selected frames' points. With
    ``exclude_client``, that client's contributions are ignored (queries are
    assessed against what the rest of the fleet mapped).
    """
    cand = _gated_frames(map, q, q_fov, t_d, exclude_client)
    if not len(cand):
        return NeighborSet([], np.empty(0, dtype=np.int64), np.empty((0, 3)))
    frame_ids = sorted(map._fr_ids[cand].tolist())
    rows = _union_rows(map, cand)
    ids = map._pt_ids[rows]
    order = np.argsort(ids, kind="stable")
    rows, ids = rows[order], ids[order]
    return NeighborSet(frame_ids, ids.copy(), map._pt_pos[rows].copy())


def audit(map: GlobalMap) -> list[str]:
    """Referential-integrity and index-consistency check; empty when healthy."""
    violations = []
    ids = map.points
    n = len(ids)
    by_id, permutation = map._by_id, np.array_equal(np.sort(map._by_id), np.arange(n))
    if not permutation or (ids[by_id[1:]] <= ids[by_id[:-1]]).any():
        violations.append(f"id index out of sync with the {n}-row point table")
    owners = np.bincount(map.owner_pairs()[0], minlength=n)[:n]
    for row in np.flatnonzero(map.point_observation_counts != owners):
        violations.append(
            f"point {ids[row]} observation_count {map._pt_obs[row]} != "
            f"{owners[row]} owners"
        )

    for name, index, table in (
        ("point", map._point_index, map.point_positions),
        ("frame", map._frame_index, map._fr_pose[: map._fr_count, :3]),
    ):
        if not np.array_equal(index.positions(), table):
            violations.append(
                f"{name} index holds {len(index)} positions that differ from the "
                f"{len(table)}-row {name} table"
            )
    return violations


# Per point, in id order: the bytes state_digest hashes.
_DIGEST_POINT = np.dtype([("id", "<i8"), ("obs", "<i4"), ("position", "<f8", (3,))])


def state_digest(map: GlobalMap) -> str:
    """Order-independent digest of poses, points, and counts."""
    h = hashlib.sha1()
    off = map._fr_off[: map._fr_count + 1]
    frame_ids = np.split(map._pt_ids[map._mem_pt[: off[-1]]], off[1:-1])
    for fid, pose, ids in zip(map.frames.tolist(), map._fr_pose, frame_ids):
        h.update(struct.pack("<q", fid))
        h.update(pose.tobytes())
        h.update(np.sort(ids).tobytes())
    order = map._by_id
    table = np.empty(len(order), dtype=_DIGEST_POINT)
    table["id"] = map.points[order]
    table["obs"] = map.point_observation_counts[order]
    table["position"] = map.point_positions[order]
    h.update(table.tobytes())
    return h.hexdigest()


# -- snapshot persistence ------------------------------------------------

# A snapshot point record and frame header (docs/formats.md).
_SNAPSHOT_POINT = np.dtype(
    [("id", "<i8"), ("position", "<f8", (3,)), ("descriptor", "u1", (32,))]
)
_SNAPSHOT_FRAME = struct.Struct("<qII6ddH")
# The same header as save_snapshot packs it: the wire's, with a u16 id count.
_SNAPSHOT_FRAME_DTYPE = np.dtype(FRAME_DTYPE.descr[:-1] + [("id_count", "<u2")])
assert _SNAPSHOT_FRAME_DTYPE.itemsize == _SNAPSHOT_FRAME.size


def _write_atomically(path, data):
    """Write ``data`` to a temporary file beside ``path``, then move it into
    place: a write that fails part-way leaves an existing file unchanged."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def save_snapshot(map: GlobalMap, path):
    """Versioned little-endian binary snapshot (see docs/formats.md), written
    atomically."""
    order = map._by_id
    table = np.empty(len(order), dtype=_SNAPSHOT_POINT)
    table["id"] = map.points[order]
    table["position"] = map.point_positions[order]
    table["descriptor"] = map.point_descriptors[order]
    n = map._fr_count
    off = map._fr_off[: n + 1]
    frames = map.frame_headers(np.arange(n), np.diff(off), _SNAPSHOT_FRAME_DTYPE)
    parts = [
        SNAPSHOT_MAGIC,
        struct.pack("<HHII", SNAPSHOT_VERSION, map.np_max, n, len(order)),
        table.tobytes(),
        pack_runs(frames, map._pt_ids[map._mem_pt[: off[-1]]]),
    ]
    _write_atomically(path, b"".join(parts))


def load_snapshot(path) -> GlobalMap:
    """Rebuild a map from a snapshot, all frames in one batch.

    The map equals the one inserting the frames one at a time, in file
    order, would build; observation counts and owners follow from the
    frames. Raises SnapshotError when the file is malformed (see
    docs/formats.md for the cases), among them frame ids that do not
    strictly increase, or when its point table disagrees with its frames:
    an id no frame lists or missing from the table.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != SNAPSHOT_MAGIC:
        raise SnapshotError(f"bad magic {data[:4]!r}")
    if len(data) < 16:
        raise SnapshotError(f"truncated snapshot: need 16 header bytes, have {len(data)}")
    version, np_max, n_frames, n_points = struct.unpack_from("<HHII", data, 4)
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(f"unsupported snapshot version {version}")
    off = 16 + _SNAPSHOT_POINT.itemsize * n_points
    if off > len(data):
        raise SnapshotError(f"truncated snapshot: need {off} bytes, have {len(data)}")
    table = np.frombuffer(data, dtype=_SNAPSHOT_POINT, count=n_points, offset=16)
    try:
        frames = []
        for _ in range(n_frames):
            fid, client, keyframe, *pose, fov, np_new = _SNAPSHOT_FRAME.unpack_from(data, off)
            off += _SNAPSHOT_FRAME.size
            ids = np.frombuffer(data, dtype="<i8", count=np_new, offset=off)
            off += 8 * np_new
            frames.append(MapFrame(fid, client, keyframe, Pose(*pose), fov, ids))
    except (struct.error, ValueError) as e:
        raise SnapshotError(f"malformed snapshot at offset {off}: {e}") from e
    if off != len(data):
        raise SnapshotError(f"{len(data) - off} trailing bytes after the last frame")

    ids = table["id"]
    ascends = ids[1:] > ids[:-1]
    if not ascends.all():
        j = int(np.argmin(ascends))
        fault = "lists an id twice" if ids[j] == ids[j + 1] else "is not in id order"
        raise SnapshotError(f"point table {fault}: {ids[j]} then {ids[j + 1]}")
    listed_ids = np.concatenate([f.ids for f in frames] + [np.empty(0, dtype=np.int64)])
    at = np.searchsorted(ids, listed_ids)
    listed = at < n_points
    listed[listed] = ids[at[listed]] == listed_ids[listed]
    if not listed.all():
        j = int(np.argmin(listed))
        f = frames[np.searchsorted(np.cumsum([f.np_new for f in frames]), j, side="right")]
        raise SnapshotError(
            f"frame {f.frame_id} lists point {listed_ids[j]}, absent from the table"
        )
    m = GlobalMap(np_max=np_max)
    try:
        m._append_frames(frames, table["position"][at], table["descriptor"][at])
    except ValueError as e:
        raise SnapshotError(f"malformed snapshot: {e}") from e
    if m._pt_count < n_points:
        unlisted = np.ones(n_points, dtype=bool)
        unlisted[at] = False
        raise SnapshotError(f"point {ids[np.argmax(unlisted)]} is listed by no frame")
    return m
