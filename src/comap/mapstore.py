"""Server-side global map: frames, points, and incremental spatial indices.

Points live only in row-indexed columns (ids, float64 positions, 32-byte
descriptors, observation counts); ids are found by binary search along the
point rows in ascending id order, into which new rows are merged. Frames
live only in one table of the wire's frame headers (``FRAME_DTYPE``: id,
client and keyframe ids as u32, six pose floats, fov and the frame's
listing count), beside the optical axis derived from each pose. Its rows
hold strictly ascending frame ids, so a frame is refused unless its id is
above the last stored one. Which frames list which points is one
append-only column of point rows, one per listed id in frame order: each
frame's listings are a contiguous run of it, delimited by a per-frame
offset column, so a frame's point ids are a slice, a point's owners are the
frames whose runs list it, and its observation count is their number.
Frames enter through one batch append of a header table and the id column
its runs make: ``insert_frame`` passes one frame's header,
``load_snapshot`` every frame of a snapshot at once, as the wire's run
reader (``wire.read_runs``) reads them. Two persistent ``spatial.KdTree``
indices, one over point positions and one over frame positions, index
their tables' own rows and hold no positions of their own: a row is the
position's place in its table. A write hands an index the table's rows;
its tree covers the first of them, its side buffer is the rest, and a
build indexes the rows in place, so the point tree shares the point
table's memory. The tables are only appended to, and a table that outgrows
its room moves to a new array, leaving the old one intact, so no row a
tree covers ever changes. An index rebuilds its tree only while it is
being read: a read that finds the buffer over 10% of the tree size
rebuilds first, and so does a write, if the index was read since its last
build. Every read thus sees a buffer of at most 10%, and an index that is
only written to (the point index of uploads into unmapped space) is never
built. A load builds each index once, before the map is served. Radius
queries take candidates from the tree and a linear scan of the buffer;
overlap classification and k-nearest queries search the buffer through a
small tree of its own, built on demand and kept until the next insert.
Nearest-neighbor lists merge the tree's and the buffer's by (squared
distance, row).

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
from .wire import FRAME_DTYPE, DecodeError, _Payload, pack_runs, read_runs

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

    def header(self) -> np.ndarray:
        """The frame as a one-row ``FRAME_DTYPE`` table. Raises ValueError
        when an id does not fit its field: client and keyframe ids are u32."""
        try:
            return np.array([(self.frame_id, self.client_id, self.keyframe_id,
                              self.pose.as_array(), self.fov, self.np_new)], dtype=FRAME_DTYPE)
        except OverflowError as e:
            raise ValueError(f"frame {self.frame_id}: {e}") from e


@dataclass
class NeighborSet:
    """Frames near a query pose (distance and axis-angle gated) and their points."""

    frame_ids: list[int]
    point_ids: np.ndarray
    point_positions: np.ndarray


def _read_only(view: np.ndarray) -> np.ndarray:
    """``view``, marked read-only; the array it views stays writable."""
    view.flags.writeable = False
    return view


def _reserve(columns: tuple, need: int, floor: int) -> tuple:
    """The columns, moved to new arrays of twice ``need`` rows when they hold
    fewer: growth stays amortized, and a bulk load leaves room for the
    inserts that follow it. The old arrays are left intact, and the room
    past the old rows is left unwritten, so it costs no memory until used."""
    if need <= len(columns[0]):
        return columns
    cap = max(floor, 2 * need)
    grown = tuple(np.empty((cap,) + c.shape[1:], dtype=c.dtype) for c in columns)
    for new, old in zip(grown, columns):
        new[: len(old)] = old
    return grown


# Every index starts from this tree; a KdTree is never modified once built.
_EMPTY_TREE = KdTree(np.empty((0, 3)))
# The side buffer is oversized once it holds more than this share of the
# tree's points, and more than _MIN_PENDING points.
_REBUILD_FRACTION = 0.1
_MIN_PENDING = 16


class _IncrementalIndex:
    """KdTree plus side buffer over rows that a table owns: ``extend`` hands
    the index the table's rows, the tree covers the first ``len(self._tree)``
    of them, and the buffer is the rest. The table is only appended to, and
    a table that grows moves to a new array, leaving the old one intact, so
    no row a tree or a read covers ever changes.

    A tree is rebuilt only for an index that is read. A read first folds an
    oversized buffer into a new tree, so every read sees a buffer of at most
    a tenth of its tree; a write does so only if the index was read since
    its last build. An index that is only written is never built.
    """

    def __init__(self):
        self._tree = _EMPTY_TREE
        self._rows = _EMPTY_TREE.points  # every indexed row, by row
        self._buffer_tree = None  # over the buffered rows; dropped on every extend
        self._read = False  # since the tree was built

    def __len__(self) -> int:
        return len(self._rows)

    def extend(self, rows: np.ndarray):
        """Index the table's current ``rows``: those indexed so far,
        unchanged, then the new ones. Rebuild once the side buffer outgrows
        its share, if the index was read since its build."""
        self._rows = rows
        self._buffer_tree = None
        if self._read and self._oversized():
            self._build()

    def rebuild(self):
        """Fold the side buffer into a new tree."""
        self._build()

    def _oversized(self) -> bool:
        buffered = len(self._rows) - len(self._tree)
        return buffered > max(_MIN_PENDING, _REBUILD_FRACTION * len(self._tree))

    def _build(self):
        self._tree = KdTree(self._rows)
        self._buffer_tree = None
        self._read = False

    def _parts(self) -> tuple[KdTree, np.ndarray]:
        """The tree and the buffered rows, for one read; an oversized buffer
        is folded into a new tree first. Rows of the buffer follow the
        tree's."""
        if self._oversized():
            self._build()
        self._read = True
        return self._tree, self._rows[len(self._tree) :]

    def _tree_of_buffer(self) -> KdTree:
        """The non-empty buffer's own tree, built on first use and kept until
        the next extend."""
        if self._buffer_tree is None:
            self._buffer_tree = KdTree(self._rows[len(self._tree) :])
        return self._buffer_tree

    def candidate_rows(self, centers: np.ndarray, radii: np.ndarray) -> list[np.ndarray]:
        """Per center, the rows of every point within its radius and possibly
        of some a little beyond it, in no particular order; the caller
        decides on them.

        The tree answers every center in one ball query and the buffer in
        one distance pass, both at the padded radii.
        """
        centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
        radii = np.asarray(radii, dtype=np.float64)
        tree, buffer = self._parts()
        rows = tree.candidates_within(centers, radii)
        if not len(buffer):
            return rows
        d2 = np.sum((buffer - centers[:, None, :]) ** 2, axis=-1)
        near = d2 <= _search_radius(radii)[:, None] ** 2
        n = len(tree)
        return [np.concatenate([r, n + np.flatnonzero(b)]) for r, b in zip(rows, near)]

    def query_nearest(self, centers: np.ndarray, k: int) -> np.ndarray:
        """Rows of each center's k nearest points, closest first, ties by row.

        The tree's and the buffer's k nearest are merged by (squared
        distance, row). The tree's ties by position are ties by row, so the
        result equals ``KdTree.query_nearest`` over all indexed points in
        row order.
        """
        centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
        tree, buffer = self._parts()
        if not len(buffer):
            return tree.query_nearest(centers, k)
        rows, d2 = [], []
        for part, first_row in ((tree, 0), (self._tree_of_buffer(), len(tree))):
            nn = part.query_nearest(centers, k)
            rows.append(first_row + nn)
            d2.append(np.sum((part.points[nn] - centers[:, None, :]) ** 2, axis=-1))
        rows, d2 = np.concatenate(rows, axis=1), np.concatenate(d2, axis=1)
        order = np.lexsort((rows, d2))
        return np.take_along_axis(rows, order, axis=1)[:, : min(k, len(tree) + len(buffer))]

    def any_within(self, centers: np.ndarray, r: float, allowed: np.ndarray) -> np.ndarray:
        """Per center: does a point whose row is set in ``allowed`` lie within r?"""
        tree, _ = self._parts()
        n = len(tree)
        found = tree.any_within(centers, r, allowed[:n])
        todo = np.flatnonzero(~found)
        if len(todo) and allowed[n:].any():
            found[todo] = self._tree_of_buffer().any_within(centers[todo], r, allowed[n:])
        return found


class GlobalMap:
    """The server's shared map. It serves one caller at a time: neither a
    read nor a write may overlap another call, since a read may rebuild an
    index. ``MapServer`` holds one lock over each message to provide that.
    """

    def __init__(self, np_max: int = 300):
        # The snapshot header and the query's np hint hold it as a u16.
        if not 1 <= np_max <= 0xFFFF:
            raise ValueError(f"np_max must be in 1..65535, got {np_max}")
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
        # store of frames, each id_count the frame's number of listings.
        # _fr_axis is the optical axis derived from each pose, for the gate.
        self._frames = np.zeros(0, dtype=FRAME_DTYPE)
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
        return _read_only(self._pt_ids[: self._pt_count])

    @property
    def frames(self) -> np.ndarray:
        """Read-only ids of the stored frames, ascending, in row order."""
        return _read_only(self._frames["frame_id"][: self._fr_count])

    @property
    def point_positions(self) -> np.ndarray:
        """Read-only positions of the stored points, in row order."""
        return _read_only(self._pt_pos[: self._pt_count])

    @property
    def point_descriptors(self) -> np.ndarray:
        """Read-only descriptors of the stored points, in row order."""
        return _read_only(self._pt_desc[: self._pt_count])

    @property
    def point_observation_counts(self) -> np.ndarray:
        """Read-only observation counts of the stored points, in row order."""
        return _read_only(self._pt_obs[: self._pt_count])

    def memberships(self) -> tuple[np.ndarray, np.ndarray]:
        """(frame row, point row) per listed id, in insertion order, derived
        from the frame extents."""
        off = self._fr_off[: self._fr_count + 1]
        return np.repeat(np.arange(self._fr_count), np.diff(off)), self._mem_pt[: off[-1]]

    def frame_headers(self, rows, counts) -> np.ndarray:
        """The frame-table ``rows``, with ``counts`` ids each."""
        heads = self._frames[rows]
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
        fids = self._frames["frame_id"][fr]
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
        return self._search_ids(np.asarray(ids, dtype=np.int64).reshape(-1))[1]

    def _search_ids(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per id, its place in the id order (where it is, or would be
        inserted), and its point-table row, or -1 where it is not stored."""
        if not self._pt_count:
            return np.zeros(len(ids), dtype=np.int64), np.full(len(ids), -1, dtype=np.int64)
        at = np.searchsorted(self._pt_ids[: self._pt_count], ids, sorter=self._by_id)
        rows = self._by_id[np.minimum(at, self._pt_count - 1)]
        return at, np.where(self._pt_ids[rows] == ids, rows, -1)

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

    def _append_frames(self, heads: np.ndarray, ids, positions, descriptors):
        """Store frames and integrate their points: the map's one construction path.

        ``heads`` is a table of frame headers (``FRAME_DTYPE``'s fields in
        its order), and ``ids`` their runs of point ids concatenated in
        order, ``id_count`` each; ``positions`` and ``descriptors`` align
        with ``ids``. The batch is checked whole before anything is stored,
        so a rejected batch leaves the map unchanged. The result equals
        appending the frames one at a time: new ids take rows in order of
        first appearance over the batch, keeping their first position and
        descriptor, and each point's observation count grows by the number
        of distinct frames listing it.
        """
        last = int(self.frames[-1]) if self._fr_count else None
        for fid, _, _, _, fov, count in heads.tolist():
            if last is not None and fid <= last:
                raise DuplicateFrameError(f"frame {fid} is not above frame {last}")
            last = fid
            if count > self.np_max:
                raise FrameTooLargeError(
                    f"frame {fid} carries {count} points, capacity {self.np_max}"
                )
            if not 0.0 < fov < math.pi:
                raise ValueError(f"frame {fid} has fov {fov!r}, outside (0, pi)")
        ids = np.asarray(ids, dtype=np.int64)
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
        k = len(heads)
        if not k:
            return

        # One stable sort groups each id's memberships in frame order, so a
        # repeat within one frame sits next to the pair it repeats.
        lengths = heads["id_count"].astype(np.int64)
        frame_of = np.repeat(np.arange(k), lengths)
        perm = np.argsort(ids, kind="stable")
        sorted_ids, sorted_frames = ids[perm], frame_of[perm]
        head = np.ones(n, dtype=bool)
        head[1:] = sorted_ids[1:] != sorted_ids[:-1]
        distinct_pair = head.copy()
        distinct_pair[1:] |= sorted_frames[1:] != sorted_frames[:-1]
        group = np.cumsum(head) - 1
        listings = np.bincount(group[distinct_pair])
        first = perm[head]
        at, uniq_rows = self._search_ids(sorted_ids[head])
        new = np.flatnonzero(uniq_rows < 0)  # in id order
        by_first = new[np.argsort(first[new])]
        uniq_rows[by_first] = self._pt_count + np.arange(len(new))
        rows = np.empty(n, dtype=np.int64)
        rows[perm] = uniq_rows[group]

        if len(new):
            src = first[by_first]
            self._append_points(ids[src], positions[src], descriptors[src])
            self._by_id = np.insert(self._by_id, at[new], uniq_rows[new])
        self._pt_obs[uniq_rows] += listings

        base = self._fr_count
        self._frames, self._fr_axis, self._fr_off = _reserve(
            (self._frames, self._fr_axis, self._fr_off), base + k + 1, 16
        )
        added = slice(base, base + k)
        self._frames[added] = heads
        self._fr_axis[added] = _optical_axes(heads["pose"])
        m = self._fr_off[base]
        self._fr_off[base + 1 : base + k + 1] = m + np.cumsum(lengths)
        self._fr_count += k
        self._frame_index.extend(self._frames["pose"][: self._fr_count, :3])
        (self._mem_pt,) = _reserve((self._mem_pt,), m + n, 256)
        self._mem_pt[m : m + n] = rows

    def _append_points(self, ids: np.ndarray, positions: np.ndarray, descriptors: np.ndarray):
        """New rows with observation count 0, indexed in one batch; the
        caller puts them in id order."""
        base, k = self._pt_count, len(ids)
        self._pt_ids, self._pt_pos, self._pt_desc, self._pt_obs = _reserve(
            (self._pt_ids, self._pt_pos, self._pt_desc, self._pt_obs), base + k, 64
        )
        self._pt_ids[base : base + k] = ids
        self._pt_pos[base : base + k] = positions
        self._pt_desc[base : base + k] = descriptors
        self._pt_obs[base : base + k] = 0
        self._pt_count += k
        self._point_index.extend(self._pt_pos[: self._pt_count])


def insert_frame(map: GlobalMap, frame: MapFrame, positions, descriptors=None) -> int:
    """Store a frame and integrate its points into the global map.

    The frame is stored as its ``header()`` row, and ``positions`` (and
    ``descriptors``, 32 bytes each, zero when omitted) align with
    ``frame.ids``. An id already stored keeps its position and descriptor,
    and its observation count grows by one. An id repeated within the frame
    is counted once, with its first position. Raises DuplicateFrameError
    for a frame id not above the last stored one, FrameTooLargeError for
    more than ``np_max`` ids, and ValueError for a client or keyframe id
    outside u32 (the snapshot and the wire carry them as u32), for
    positions that do not align with the ids or are not finite, or for a
    fov outside (0, pi); the map is then unchanged.
    """
    map._append_frames(frame.header(), frame.ids, positions, descriptors)
    return frame.frame_id


def _optical_axes(poses: np.ndarray) -> np.ndarray:
    """``optical_axis`` of each (x, y, z, roll, pitch, yaw) row."""
    return np.array([optical_axis(Pose.stored(*p)) for p in poses.tolist()]).reshape(-1, 3)


def _gated_frames(
    map: GlobalMap, q: Pose, q_fov: float, t_d: float, exclude_client: int | None
) -> np.ndarray:
    """Frame-table rows passing the distance and axis-angle gates, in no
    particular order."""
    if not map._fr_count:
        return np.empty(0, dtype=np.int64)
    qpos = q.position
    (cand,) = map._frame_index.candidate_rows(qpos, [t_d])
    if exclude_client is not None and len(cand):
        cand = cand[map._frames["client_id"][cand] != exclude_client]
    if not len(cand):
        return cand
    dist = np.linalg.norm(map._frames["pose"][cand, :3] - qpos, axis=1)
    cand = cand[dist < t_d]
    if len(cand):
        cosang = np.clip(map._fr_axis[cand] @ optical_axis(q), -1.0, 1.0)
        cand = cand[np.arccos(cosang) < 0.5 * (q_fov + map._frames["fov"][cand])]
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
    frame_ids = sorted(map._frames["frame_id"][cand].tolist())
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

    frames = map._frames[: map._fr_count]
    if not np.array_equal(np.diff(map._fr_off[: map._fr_count + 1]), frames["id_count"]):
        violations.append("frame offsets disagree with the frames' id counts")
    if not np.array_equal(map._fr_axis[: map._fr_count], _optical_axes(frames["pose"])):
        violations.append("frame axes disagree with the frames' poses")
    for name, index, table in (
        ("point", map._point_index, map.point_positions),
        ("frame", map._frame_index, frames["pose"][:, :3]),
    ):
        tree, rows = index._tree, index._rows
        if not (np.array_equal(rows, table) and np.array_equal(tree.points, table[: len(tree)])):
            violations.append(
                f"{name} index over {len(rows)} rows ({len(tree)} in its tree) differs "
                f"from the {len(table)}-row {name} table"
            )
    return violations


# Per point, in id order: the bytes state_digest hashes.
_DIGEST_POINT = np.dtype([("id", "<i8"), ("obs", "<i4"), ("position", "<f8", (3,))])


def state_digest(map: GlobalMap) -> str:
    """Order-independent digest of poses, points, and counts."""
    h = hashlib.sha1()
    off = map._fr_off[: map._fr_count + 1]
    frame_ids = np.split(map._pt_ids[map._mem_pt[: off[-1]]], off[1:-1])
    for fid, pose, ids in zip(map.frames.tolist(), map._frames["pose"], frame_ids):
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
# The wire's frame header, with a u16 id count.
_SNAPSHOT_FRAME_DTYPE = np.dtype(FRAME_DTYPE.descr[:-1] + [("id_count", "<u2")])


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
    parts = [
        SNAPSHOT_MAGIC,
        struct.pack("<HHII", SNAPSHOT_VERSION, map.np_max, n, len(order)),
        table.tobytes(),
        pack_runs(map._frames[:n].astype(_SNAPSHOT_FRAME_DTYPE),
                  map._pt_ids[map._mem_pt[: map._fr_off[n]]]),
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
    runs = _Payload(data, off, len(data))
    try:
        heads, listed_ids = read_runs(runs, _SNAPSHOT_FRAME_DTYPE, n_frames)
        runs.done()
    except DecodeError as e:
        raise SnapshotError(f"malformed snapshot: {e}") from e

    ids = table["id"]
    ascends = ids[1:] > ids[:-1]
    if not ascends.all():
        j = int(np.argmin(ascends))
        fault = "lists an id twice" if ids[j] == ids[j + 1] else "is not in id order"
        raise SnapshotError(f"point table {fault}: {ids[j]} then {ids[j + 1]}")
    at = np.searchsorted(ids, listed_ids)
    listed = at < n_points
    listed[listed] = ids[at[listed]] == listed_ids[listed]
    if not listed.all():
        j = int(np.argmin(listed))
        fid = heads["frame_id"][np.searchsorted(np.cumsum(heads["id_count"]), j, side="right")]
        raise SnapshotError(f"frame {fid} lists point {listed_ids[j]}, absent from the table")
    try:
        m = GlobalMap(np_max=np_max)
        m._append_frames(heads, listed_ids, table["position"][at], table["descriptor"][at])
    except ValueError as e:
        raise SnapshotError(f"malformed snapshot: {e}") from e
    if m._pt_count < n_points:
        unlisted = np.ones(n_points, dtype=bool)
        unlisted[at] = False
        raise SnapshotError(f"point {ids[np.argmax(unlisted)]} is listed by no frame")
    # A loaded map is about to be served: build its indices now, not on the
    # first reads.
    m._point_index.rebuild()
    m._frame_index.rebuild()
    return m
