"""Server-side global map: frames, points, and incremental spatial indices.

Point metadata lives in per-id records; positions and observation counts are
mirrored into columnar arrays so cone filtering and neighbor gathering stay
vectorized. Two persistent ``spatial.KdTree`` indices, one over point
positions and one over frame positions, absorb inserts through a side buffer
and rebuild once it exceeds 10% of the tree size. Single-center radius
queries scan the buffer linearly; batch queries (overlap classification)
search it through a small tree of its own, built on demand and kept until
the next insert.

Neighbor gathering never sorts: the gated frames' rows are deduplicated by
setting them in a boolean mask over the point table, and overlap assessment
queries the persistent point index once, counting only points whose row is
set in that mask.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose, optical_axis
from .spatial import KdTree

SNAPSHOT_MAGIC = b"MPPS"
SNAPSHOT_VERSION = 1

# Modeled per-slot sizes for the constant full-capacity frame footprint.
FEATURE_SLOT_BYTES = 40
POINT_SLOT_BYTES = 56
FRAME_HEADER_BYTES = 96


class DuplicateFrameError(ValueError):
    """Raised when a frame_id is inserted twice; the map is left unchanged."""


class FrameTooLargeError(ValueError):
    """Raised when a frame carries more points than the configured capacity."""


class SnapshotError(ValueError):
    """Raised when a snapshot file is malformed."""


@dataclass
class MapPoint:
    """A 3D landmark stored on the server."""

    id: int
    position: np.ndarray
    descriptor: bytes = b"\x00" * 32
    observation_count: int = 1
    owner_frames: set[int] = field(default_factory=set)


@dataclass
class MapFrame:
    """A stored map frame; point storage is reserved at full capacity."""

    frame_id: int
    client_id: int
    keyframe_id: int
    pose: Pose
    fov: float
    point_ids: np.ndarray  # int64, length np_max, padded with -1
    np_new: int
    timestamp: float = 0.0
    feature_slots: int = 1000

    @property
    def ids(self) -> np.ndarray:
        return self.point_ids[: self.np_new]

    @classmethod
    def create(
        cls,
        frame_id: int,
        client_id: int,
        keyframe_id: int,
        pose: Pose,
        fov: float,
        point_ids,
        np_max: int,
        timestamp: float = 0.0,
        feature_slots: int = 1000,
    ) -> "MapFrame":
        ids = np.asarray(point_ids, dtype=np.int64)
        if len(ids) > np_max:
            raise FrameTooLargeError(
                f"frame {frame_id} carries {len(ids)} points, capacity {np_max}"
            )
        padded = np.full(np_max, -1, dtype=np.int64)
        padded[: len(ids)] = ids
        return cls(
            frame_id=frame_id,
            client_id=client_id,
            keyframe_id=keyframe_id,
            pose=pose,
            fov=fov,
            point_ids=padded,
            np_new=len(ids),
            timestamp=timestamp,
            feature_slots=feature_slots,
        )


@dataclass
class NeighborSet:
    """Frames near a query pose (distance and axis-angle gated) and their points."""

    frame_ids: list[int]
    point_ids: np.ndarray
    point_positions: np.ndarray


class _IncrementalIndex:
    """KdTree plus side buffer keyed by external integer rows."""

    def __init__(self, rebuild_fraction: float = 0.1, min_pending: int = 16):
        self._tree = KdTree(np.empty((0, 3)))
        self._tree_rows = np.empty(0, dtype=np.int64)
        self._pending_rows: list[int] = []
        self._pending_pos: list[np.ndarray] = []
        self._pending_tree = None  # over _pending_pos; dropped on every add
        self._rebuild_fraction = rebuild_fraction
        self._min_pending = min_pending

    def __len__(self) -> int:
        return len(self._tree_rows) + len(self._pending_rows)

    def add(self, row: int, position: np.ndarray):
        self._pending_rows.append(row)
        self._pending_pos.append(np.asarray(position, dtype=np.float64))
        self._pending_tree = None
        threshold = max(self._min_pending, self._rebuild_fraction * len(self._tree_rows))
        if len(self._pending_rows) > threshold:
            self.rebuild()

    def rebuild(self):
        self._tree = KdTree(np.concatenate([self._tree.points, self._pending_array()]))
        self._tree_rows = self.rows()
        self._pending_rows = []
        self._pending_pos = []
        self._pending_tree = None

    def _pending_array(self) -> np.ndarray:
        return np.array(self._pending_pos, dtype=np.float64).reshape(-1, 3)

    def rows(self) -> np.ndarray:
        return np.concatenate(
            [self._tree_rows, np.asarray(self._pending_rows, dtype=np.int64)]
        )

    def radius_rows(self, center, r: float) -> np.ndarray:
        """Ascending rows with distance <= r; identical arithmetic to the linear oracle."""
        center = np.asarray(center, dtype=np.float64)
        hits = [self._tree_rows[self._tree.radius_search(center, r)]]
        if self._pending_rows:
            d2 = np.sum((self._pending_array() - center) ** 2, axis=1)
            hits.append(
                np.asarray(self._pending_rows, dtype=np.int64)[d2 <= r * r]
            )
        return np.sort(np.concatenate(hits))

    def any_within(self, centers: np.ndarray, r: float, allowed: np.ndarray) -> np.ndarray:
        """Per center: does a point whose row is set in ``allowed`` lie within r?"""
        found = self._tree.any_within(centers, r, allowed[self._tree_rows])
        pending = np.asarray(self._pending_rows, dtype=np.int64)
        todo = np.flatnonzero(~found)
        if len(todo) and allowed[pending].any():
            if self._pending_tree is None:
                self._pending_tree = KdTree(self._pending_array())
            found[todo] = self._pending_tree.any_within(centers[todo], r, allowed[pending])
        return found


class GlobalMap:
    """The server's shared map."""

    def __init__(self, np_max: int = 300, merge_radius: float | None = None):
        self.np_max = np_max
        self.merge_radius = merge_radius
        self.frames: dict[int, MapFrame] = {}
        self.points: dict[int, MapPoint] = {}
        self._next_frame_id = 1
        # Columnar mirrors of the point table (row-indexed).
        self._pt_ids = np.empty(0, dtype=np.int64)
        self._pt_pos = np.empty((0, 3), dtype=np.float64)
        self._pt_obs = np.empty(0, dtype=np.int64)
        self._pt_count = 0
        self._id_to_row: dict[int, int] = {}
        self._point_index = _IncrementalIndex()
        # Frame pose table (row-indexed) and its index.
        self._fr_ids: list[int] = []
        self._fr_pos = np.empty((0, 3), dtype=np.float64)
        self._fr_axis = np.empty((0, 3), dtype=np.float64)
        self._fr_fov = np.empty(0, dtype=np.float64)
        self._fr_client = np.empty(0, dtype=np.int64)
        self._fr_count = 0
        self._frame_index = _IncrementalIndex()
        self._frame_rows: dict[int, np.ndarray] = {}

    # -- capacity-doubling appends ------------------------------------

    def _grow_points(self, extra: int):
        need = self._pt_count + extra
        cap = len(self._pt_ids)
        if need <= cap:
            return
        cap = max(64, cap)
        while cap < need:
            cap *= 2
        self._pt_ids = np.resize(self._pt_ids, cap)
        self._pt_pos = np.resize(self._pt_pos, (cap, 3))
        self._pt_obs = np.resize(self._pt_obs, cap)

    def _grow_frames(self, extra: int):
        need = self._fr_count + extra
        cap = len(self._fr_fov)
        if need <= cap:
            return
        cap = max(16, cap)
        while cap < need:
            cap *= 2
        self._fr_pos = np.resize(self._fr_pos, (cap, 3))
        self._fr_axis = np.resize(self._fr_axis, (cap, 3))
        self._fr_fov = np.resize(self._fr_fov, cap)
        self._fr_client = np.resize(self._fr_client, cap)

    # -- views ----------------------------------------------------------

    @property
    def point_positions(self) -> np.ndarray:
        return self._pt_pos[: self._pt_count]

    @property
    def point_id_array(self) -> np.ndarray:
        return self._pt_ids[: self._pt_count]

    @property
    def point_observation_counts(self) -> np.ndarray:
        return self._pt_obs[: self._pt_count]

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

    def rows_for_ids(self, ids) -> np.ndarray:
        return np.array([self._id_to_row[int(i)] for i in ids], dtype=np.int64)

    def allocate_frame_id(self) -> int:
        fid = self._next_frame_id
        self._next_frame_id += 1
        return fid

    def frame_footprint_bytes(self) -> int:
        """Modeled memory of one stored frame; constant by full-capacity reservation."""
        return (
            FRAME_HEADER_BYTES
            + 1000 * FEATURE_SLOT_BYTES
            + self.np_max * POINT_SLOT_BYTES
        )

    def memory_estimate_bytes(self) -> int:
        return (
            len(self.frames) * self.frame_footprint_bytes()
            + self._pt_count * POINT_SLOT_BYTES
        )

    # -- mutation ---------------------------------------------------------

    def _add_point_row(self, point: MapPoint) -> int:
        self._grow_points(1)
        row = self._pt_count
        self._pt_ids[row] = point.id
        self._pt_pos[row] = point.position
        self._pt_obs[row] = point.observation_count
        self._pt_count += 1
        self._id_to_row[point.id] = row
        self._point_index.add(row, point.position)
        return row

    def _observe_existing(self, point_id: int, frame_id: int):
        mp = self.points[point_id]
        if frame_id not in mp.owner_frames:
            mp.owner_frames.add(frame_id)
            mp.observation_count += 1
            self._pt_obs[self._id_to_row[point_id]] += 1


def insert_frame(map: GlobalMap, frame: MapFrame, points) -> int:
    """Store a frame and integrate its points into the global map.

    Points whose id already exists are merged: the stored position wins,
    the observation count grows by one per new owning frame. With
    ``merge_radius`` set, unknown ids are coalesced onto an existing point
    within that radius and the frame's id list is rewritten accordingly.
    """
    if frame.frame_id in map.frames:
        raise DuplicateFrameError(f"frame {frame.frame_id} already stored")
    if frame.np_new > map.np_max:
        raise FrameTooLargeError(
            f"frame {frame.frame_id} carries {frame.np_new} points, capacity {map.np_max}"
        )
    if len(points) != frame.np_new or any(
        int(p.id) != int(i) for p, i in zip(points, frame.ids)
    ):
        raise ValueError("frame point_ids do not match the supplied point records")
    for p in points:
        pos = np.asarray(p.position, dtype=np.float64)
        if pos.shape != (3,) or not np.all(np.isfinite(pos)):
            raise ValueError(f"point {p.id} has invalid position {p.position}")

    fid = frame.frame_id
    resolved = np.array(frame.ids, dtype=np.int64)
    rows = np.empty(len(resolved), dtype=np.int64)
    for j, p in enumerate(points):
        pid = int(p.id)
        if pid not in map.points and map.merge_radius is not None:
            near = map._point_index.radius_rows(
                np.asarray(p.position, dtype=np.float64), map.merge_radius
            )
            if len(near):
                dists = np.sum(
                    (map._pt_pos[near] - np.asarray(p.position)) ** 2, axis=1
                )
                pid = int(map._pt_ids[near[np.argmin(dists)]])
                resolved[j] = pid
        if pid in map.points:
            map._observe_existing(pid, fid)
            rows[j] = map._id_to_row[pid]
        else:
            mp = MapPoint(
                id=pid,
                position=np.asarray(p.position, dtype=np.float64).copy(),
                descriptor=bytes(p.descriptor),
                observation_count=1,
                owner_frames={fid},
            )
            map.points[pid] = mp
            rows[j] = map._add_point_row(mp)

    stored = MapFrame.create(
        frame_id=fid,
        client_id=frame.client_id,
        keyframe_id=frame.keyframe_id,
        pose=frame.pose,
        fov=frame.fov,
        point_ids=resolved,
        np_max=map.np_max,
        timestamp=frame.timestamp,
        feature_slots=frame.feature_slots,
    )
    map.frames[fid] = stored
    map._grow_frames(1)
    row = map._fr_count
    map._fr_pos[row] = frame.pose.position
    map._fr_axis[row] = optical_axis(frame.pose)
    map._fr_fov[row] = frame.fov
    map._fr_client[row] = frame.client_id
    map._fr_ids.append(fid)
    map._fr_count += 1
    map._frame_index.add(row, frame.pose.position)
    map._frame_rows[fid] = rows
    return fid


def _gated_frames(
    map: GlobalMap, q: Pose, q_fov: float, t_d: float, exclude_client: int | None
) -> np.ndarray:
    """Frame-table rows passing the distance and axis-angle gates."""
    if not map.frames:
        return np.empty(0, dtype=np.int64)
    qpos = q.position
    cand = map._frame_index.radius_rows(qpos, t_d)
    if exclude_client is not None and len(cand):
        cand = cand[map._fr_client[cand] != exclude_client]
    if not len(cand):
        return cand
    dist = np.linalg.norm(map._fr_pos[cand] - qpos, axis=1)
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
    cand = _gated_frames(map, q, q_fov, t_d, exclude_client)
    return _union_rows(map, [map._fr_ids[int(r)] for r in cand])


def _union_rows(map: GlobalMap, frame_ids) -> np.ndarray:
    """Ascending, deduplicated point-table rows of the given frames."""
    if not len(frame_ids):
        return np.empty(0, dtype=np.int64)
    mask = np.zeros(map._pt_count, dtype=bool)
    mask[np.concatenate([map._frame_rows[f] for f in frame_ids])] = True
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
    frame_ids = sorted(map._fr_ids[int(r)] for r in cand)
    rows = _union_rows(map, frame_ids)
    ids = map._pt_ids[rows]
    order = np.argsort(ids, kind="stable")
    rows, ids = rows[order], ids[order]
    return NeighborSet(frame_ids, ids.copy(), map._pt_pos[rows].copy())


def audit(map: GlobalMap) -> list[str]:
    """Referential-integrity and index-consistency check; empty when healthy."""
    violations = []
    for fid, frame in map.frames.items():
        for pid in frame.ids:
            if int(pid) not in map.points:
                violations.append(f"frame {fid} references missing point {pid}")
        rows = map._frame_rows.get(fid)
        if rows is None or not np.array_equal(map._pt_ids[rows], frame.ids):
            violations.append(f"frame {fid} row cache out of sync")
    for pid, mp in map.points.items():
        missing = mp.owner_frames - map.frames.keys()
        if missing:
            violations.append(f"point {pid} owned by missing frames {sorted(missing)}")
        if mp.observation_count != len(mp.owner_frames):
            violations.append(
                f"point {pid} observation_count {mp.observation_count} != "
                f"{len(mp.owner_frames)} owners"
            )
        row = map._id_to_row.get(pid)
        if row is None:
            violations.append(f"point {pid} missing from columnar table")
        else:
            if int(map._pt_obs[row]) != mp.observation_count:
                violations.append(f"point {pid} columnar count out of sync")
            if not np.array_equal(map._pt_pos[row], mp.position):
                violations.append(f"point {pid} columnar position out of sync")

    idx_rows = np.sort(map._point_index.rows())
    want = np.arange(map._pt_count, dtype=np.int64)
    if len(idx_rows) != map._pt_count or not np.array_equal(idx_rows, want):
        violations.append(
            f"point index holds {len(idx_rows)} rows, table holds {map._pt_count}"
        )
    if map._pt_count != len(map.points):
        violations.append(
            f"point table holds {map._pt_count} rows, dict holds {len(map.points)}"
        )
    fr_rows = np.sort(map._frame_index.rows())
    want = np.arange(map._fr_count, dtype=np.int64)
    if len(fr_rows) != map._fr_count or not np.array_equal(fr_rows, want):
        violations.append(
            f"frame index holds {len(fr_rows)} rows, table holds {map._fr_count}"
        )
    if map._fr_count != len(map.frames):
        violations.append(
            f"frame table holds {map._fr_count} rows, dict holds {len(map.frames)}"
        )
    return violations


def state_digest(map: GlobalMap) -> str:
    """Order-independent digest of poses, points, and counts."""
    h = hashlib.sha1()
    for fid in sorted(map.frames):
        f = map.frames[fid]
        h.update(struct.pack("<q", fid))
        h.update(f.pose.as_array().tobytes())
        h.update(np.sort(f.ids).tobytes())
    for pid in sorted(map.points):
        p = map.points[pid]
        h.update(struct.pack("<qi", pid, p.observation_count))
        h.update(np.asarray(p.position, dtype=np.float64).tobytes())
    return h.hexdigest()


# -- snapshot persistence ------------------------------------------------


def save_snapshot(map: GlobalMap, path):
    """Versioned little-endian binary snapshot (see docs/formats.md)."""
    buf = bytearray()
    buf += SNAPSHOT_MAGIC
    buf += struct.pack("<HHII", SNAPSHOT_VERSION, map.np_max, len(map.frames), len(map.points))
    for pid in sorted(map.points):
        p = map.points[pid]
        desc = bytes(p.descriptor)[:32].ljust(32, b"\x00")
        buf += struct.pack("<q3d", pid, *np.asarray(p.position, dtype=np.float64))
        buf += desc
        owners = sorted(p.owner_frames)
        buf += struct.pack("<IH", p.observation_count, len(owners))
        buf += struct.pack(f"<{len(owners)}q", *owners) if owners else b""
    for fid in sorted(map.frames):
        f = map.frames[fid]
        buf += struct.pack("<qIId", fid, f.client_id, f.keyframe_id, f.timestamp)
        buf += f.pose.as_array().tobytes()
        buf += struct.pack("<dHH", f.fov, f.feature_slots, f.np_new)
        ids = f.ids
        buf += struct.pack(f"<{len(ids)}q", *ids) if len(ids) else b""
    with open(path, "wb") as fh:
        fh.write(bytes(buf))


def load_snapshot(path) -> GlobalMap:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != SNAPSHOT_MAGIC:
        raise SnapshotError(f"bad magic {data[:4]!r}")
    version, np_max, n_frames, n_points = struct.unpack_from("<HHII", data, 4)
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(f"unsupported snapshot version {version}")
    off = 16
    m = GlobalMap(np_max=np_max)
    try:
        points: dict[int, MapPoint] = {}
        for _ in range(n_points):
            pid, x, y, z = struct.unpack_from("<q3d", data, off)
            off += 32
            desc = data[off : off + 32]
            off += 32
            obs, n_owners = struct.unpack_from("<IH", data, off)
            off += 6
            owners = struct.unpack_from(f"<{n_owners}q", data, off)
            off += 8 * n_owners
            points[pid] = MapPoint(
                id=pid,
                position=np.array([x, y, z]),
                descriptor=desc,
                observation_count=obs,
                owner_frames=set(owners),
            )
        frames = []
        for _ in range(n_frames):
            fid, client_id, keyframe_id, ts = struct.unpack_from("<qIId", data, off)
            off += 24
            pose = Pose.from_array(np.frombuffer(data, dtype="<f8", count=6, offset=off))
            off += 48
            fov, slots, np_new = struct.unpack_from("<dHH", data, off)
            off += 12
            ids = struct.unpack_from(f"<{np_new}q", data, off)
            off += 8 * np_new
            frames.append(
                MapFrame.create(
                    fid, client_id, keyframe_id, pose, fov, ids, np_max, ts, slots
                )
            )
    except struct.error as e:
        raise SnapshotError(f"truncated snapshot at offset {off}: {e}") from e

    # Rebuild through insert_frame so indices and counts are reconstructed,
    # then restore the recorded ownership metadata.
    for f in frames:
        missing = [int(i) for i in f.ids if int(i) not in points]
        if missing:
            raise SnapshotError(f"frame {f.frame_id} lists points {missing} absent from the table")
        insert_frame(m, f, [points[int(i)] for i in f.ids])
        m._next_frame_id = max(m._next_frame_id, f.frame_id + 1)
    for pid, p in points.items():
        mp = m.points.get(pid)
        if mp is None:
            raise SnapshotError(f"point {pid} is listed by no frame")
        mp.owner_frames = set(p.owner_frames)
        mp.observation_count = p.observation_count
        m._pt_obs[m._id_to_row[pid]] = p.observation_count
    return m
