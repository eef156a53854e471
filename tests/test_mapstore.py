import errno
import hashlib
import math
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from comap import mapstore, scenario
from comap.expansion import RigidTransform, integrate_upload
from comap.geometry import Pose
from comap.mapstore import (
    DuplicateFrameError,
    FrameTooLargeError,
    GlobalMap,
    MapFrame,
    SnapshotError,
    _union_rows,
    audit,
    insert_frame,
    load_snapshot,
    neighbor_point_rows,
    save_snapshot,
    select_neighbors,
    state_digest,
)
from comap.sim import generate_scene, observe
from comap.spatial import KdTree
from comap.wire import FRAME_DTYPE

from conftest import (
    SIM_INTR,
    buffered_rows,
    insert_point_cloud,
    planted_change_config,
    randomized_overlap_config,
    stored_frames,
    two_user_config,
)


# Bytes of a snapshot frame record before its point ids (docs/formats.md).
FRAME_HEAD = 74


def frame_with_points(fid, pose, ids, positions, client=1, fov=1.4):
    frame = MapFrame(fid, client, fid, pose, fov, ids)
    return frame, np.asarray(positions, dtype=np.float64).reshape(-1, 3)


def table_of(gmap):
    """Every stored frame, in row order, as a (frame id, client, keyframe
    id, pose, fov, point ids) tuple."""
    return [(f.frame_id, f.client_id, f.keyframe_id, f.pose, f.fov, f.ids.tolist())
            for f in stored_frames(gmap).values()]


def owners_of(gmap, pid):
    rows, fids = gmap.owner_pairs()
    return set(fids[rows == gmap.rows_for_ids([pid])[0]].tolist())


class TestInsertFrame:
    def test_insert_into_empty_map(self, rng):
        gmap = GlobalMap()
        pos = rng.uniform(-5, 5, (10, 3))
        frame, pts = frame_with_points(1, Pose(0, 0, 0), range(1, 11), pos)
        fid = insert_frame(gmap, frame, pts)
        assert fid == 1
        assert len(gmap.frames) == 1
        assert len(gmap.points) == 10
        assert audit(gmap) == []

    def test_stored_frames_are_read_only(self, rng):
        # The frame table, the frame index and GlobalMap.version all assume
        # that a stored frame never changes.
        gmap = GlobalMap()
        frame, pts = frame_with_points(1, Pose(0, 0, 0), range(1, 11), rng.uniform(-5, 5, (10, 3)))
        insert_frame(gmap, frame, pts)
        with pytest.raises(ValueError):
            gmap.frames[0] = 99
        with pytest.raises(AttributeError):
            gmap.frames = np.array([99])
        np.testing.assert_array_equal(gmap.frames, [1])

    def test_shared_point_increments_observation_count(self):
        gmap = GlobalMap()
        f1, p1 = frame_with_points(1, Pose(0, 0, 0), [7], [[1, 2, 3]])
        f2, p2 = frame_with_points(2, Pose(1, 0, 0), [7], [[1.01, 2, 3]])
        insert_frame(gmap, f1, p1)
        insert_frame(gmap, f2, p2)
        (row,) = gmap.rows_for_ids([7])
        assert gmap.point_observation_counts[row] == 2
        assert owners_of(gmap, 7) == {1, 2}
        # First stored position wins.
        np.testing.assert_array_equal(gmap.point_positions[row], [1, 2, 3])

    def test_duplicate_frame_id_rejected_without_side_effects(self):
        gmap = GlobalMap()
        f1, p1 = frame_with_points(1, Pose(0, 0, 0), [1, 2], [[0, 0, 0], [1, 1, 1]])
        insert_frame(gmap, f1, p1)
        digest = state_digest(gmap)
        f2, p2 = frame_with_points(1, Pose(5, 0, 0), [3], [[2, 2, 2]])
        with pytest.raises(DuplicateFrameError):
            insert_frame(gmap, f2, p2)
        assert state_digest(gmap) == digest
        assert audit(gmap) == []

    def test_capacity_violation(self, rng):
        gmap = GlobalMap(np_max=4)
        f1, p1 = frame_with_points(1, Pose(0, 0, 0), range(4), rng.uniform(-5, 5, (4, 3)))
        insert_frame(gmap, f1, p1)
        digest = state_digest(gmap)
        f2, p2 = frame_with_points(2, Pose(1, 0, 0), range(2, 7), rng.uniform(-5, 5, (5, 3)))
        with pytest.raises(FrameTooLargeError):
            insert_frame(gmap, f2, p2)
        assert state_digest(gmap) == digest
        assert (gmap.version, len(gmap.points), gmap.allocate_frame_id()) == (1, 4, 2)
        assert audit(gmap) == []

    def test_nonfinite_position_rejected(self):
        gmap = GlobalMap()
        f, p = frame_with_points(1, Pose(0, 0, 0), [1], [[np.nan, 0, 0]])
        with pytest.raises(ValueError):
            insert_frame(gmap, f, p)

    @pytest.mark.parametrize("fov", [0.0, -1.4, math.pi, 4.0, math.nan, math.inf])
    def test_fov_outside_open_range_rejected(self, rng, fov):
        gmap = GlobalMap()
        f1, p1 = frame_with_points(1, Pose(0, 0, 0), [1, 2], rng.uniform(-5, 5, (2, 3)))
        insert_frame(gmap, f1, p1)
        digest = state_digest(gmap)
        f2, p2 = frame_with_points(2, Pose(1, 0, 0), [2, 3], rng.uniform(-5, 5, (2, 3)), fov=fov)
        with pytest.raises(ValueError, match="fov"):
            insert_frame(gmap, f2, p2)
        assert state_digest(gmap) == digest
        assert (gmap.version, len(gmap.points)) == (1, 2)
        assert audit(gmap) == []

    def test_union_count_matches_hash_set_oracle(self, rng):
        gmap = GlobalMap()
        seen = set()
        universe = np.arange(1, 2001)
        positions = {i: rng.uniform(-50, 50, 3) for i in universe}
        for fid in range(1, 21):
            ids = rng.choice(universe, size=200, replace=False)
            # Half of each frame re-observes known ids once the pool exists.
            frame, pts = frame_with_points(
                fid, Pose(*rng.uniform(-10, 10, 3)), ids, [positions[i] for i in ids]
            )
            insert_frame(gmap, frame, pts)
            seen.update(int(i) for i in ids)
        assert len(gmap.points) == len(seen)
        for row, pid in enumerate(gmap.points):
            assert gmap.point_observation_counts[row] == len(owners_of(gmap, pid))
        assert audit(gmap) == []

    def test_footprint_constant_regardless_of_np_new(self, rng):
        gmap = GlobalMap(np_max=50)
        base = gmap.frame_footprint_bytes()
        for fid, n in enumerate([1, 10, 50], start=1):
            f, p = frame_with_points(
                fid, Pose(0, 0, 0), range(fid * 100, fid * 100 + n),
                rng.uniform(-5, 5, (n, 3)),
            )
            insert_frame(gmap, f, p)
            assert gmap.frame_footprint_bytes() == base


    def test_repeated_id_within_a_frame_counts_once(self):
        gmap = GlobalMap()
        f1, p1 = frame_with_points(1, Pose(0, 0, 0), [5, 6], [[0, 0, 0], [1, 1, 1]])
        insert_frame(gmap, f1, p1)
        # 6 is stored, 9 is new; each appears twice.
        f2, p2 = frame_with_points(
            2, Pose(1, 0, 0), [9, 6, 9, 6, 4],
            [[9, 9, 9], [2, 2, 2], [8, 8, 8], [3, 3, 3], [4, 4, 4]],
        )
        insert_frame(gmap, f2, p2)
        np.testing.assert_array_equal(gmap.points, [5, 6, 9, 4])
        np.testing.assert_array_equal(gmap.point_observation_counts, [1, 2, 1, 1])
        np.testing.assert_array_equal(gmap.point_positions[1:3], [[1, 1, 1], [9, 9, 9]])
        assert owners_of(gmap, 9) == {2} and owners_of(gmap, 6) == {1, 2}
        mem_fr, mem_pt = gmap.memberships()
        np.testing.assert_array_equal(gmap.points[mem_pt[mem_fr == 1]], [9, 6, 9, 6, 4])
        assert audit(gmap) == []

    def test_positions_must_align_with_ids(self):
        gmap = GlobalMap()
        f, p = frame_with_points(1, Pose(0, 0, 0), [1, 2], [[0, 0, 0], [1, 1, 1]])
        with pytest.raises(ValueError):
            insert_frame(gmap, f, p[:1])
        assert len(gmap.points) == 0 and len(gmap.frames) == 0

    def test_points_column_is_read_only(self):
        gmap = GlobalMap()
        f, p = frame_with_points(1, Pose(0, 0, 0), [1], [[0, 0, 0]])
        insert_frame(gmap, f, p)
        with pytest.raises(ValueError):
            gmap.points[0] = 2


class TestSelectNeighbors:
    def test_empty_map(self):
        ns = select_neighbors(GlobalMap(), Pose(0, 0, 0), 1.4, 40.0)
        assert ns.frame_ids == []
        assert len(ns.point_ids) == 0

    def test_distance_gate_excludes_far_frame(self):
        gmap = GlobalMap()
        f, p = frame_with_points(1, Pose(50, 0, 0), [1], [[50, 0, 5]])
        insert_frame(gmap, f, p)
        assert select_neighbors(gmap, Pose(0, 0, 0), 1.381, 40.0).frame_ids == []

    def test_distance_gate_is_strict(self):
        gmap = GlobalMap()
        f, p = frame_with_points(1, Pose(40, 0, 0), [1], [[40, 0, 5]])
        insert_frame(gmap, f, p)
        assert select_neighbors(gmap, Pose(0, 0, 0), 1.381, 40.0).frame_ids == []

    def test_angle_gate_excludes_opposed_axes(self):
        gmap = GlobalMap()
        # pi >= (1.381 + 1.381) / 2, so a frame looking the other way is out.
        pose = Pose(10, 0, 0, pitch=math.pi / 2)
        query = Pose(0, 0, 0, pitch=-math.pi / 2)
        f, p = frame_with_points(1, pose, [1], [[10, 0, 5]], fov=1.381)
        insert_frame(gmap, f, p)
        assert select_neighbors(gmap, query, 1.381, 40.0).frame_ids == []
        assert select_neighbors(gmap, pose, 1.381, 40.0).frame_ids == [1]

    def test_points_deduplicated_and_sorted(self):
        gmap = GlobalMap()
        f1, p1 = frame_with_points(1, Pose(0, 0, 0), [5, 3], [[0, 0, 1], [0, 0, 2]])
        f2, p2 = frame_with_points(2, Pose(1, 0, 0), [3, 9], [[0, 0, 2], [0, 0, 3]])
        insert_frame(gmap, f1, p1)
        insert_frame(gmap, f2, p2)
        ns = select_neighbors(gmap, Pose(0, 0, 0), 1.4, 40.0)
        assert ns.frame_ids == [1, 2]
        np.testing.assert_array_equal(ns.point_ids, [3, 5, 9])
        assert ns.point_positions.shape == (3, 3)

    def test_invariant_under_insertion_order(self, rng):
        # Frames are stored in strictly ascending id order: a frame whose id
        # is at or below the last stored one, a repeat included, is refused,
        # and the map stays as it was.
        specs = []
        for fid in range(1, 30):
            pose = Pose(*rng.uniform(-30, 30, 2), 0, yaw=rng.uniform(-3, 3))
            ids = rng.choice(np.arange(1, 500), size=20, replace=False)
            specs.append((fid, pose, ids))
        positions = {i: rng.uniform(-30, 30, 3) for i in range(1, 500)}
        gmap = GlobalMap()
        for fid, pose, ids in specs:
            f, p = frame_with_points(fid, pose, ids, [positions[int(i)] for i in ids])
            insert_frame(gmap, f, p)
        digest = state_digest(gmap)
        q = Pose(0, 0, 0, yaw=0.3)
        before = select_neighbors(gmap, q, 1.381, 40.0)
        for fid, pose, ids in reversed(specs):
            f, p = frame_with_points(fid, pose, ids[:5], [positions[int(i)] for i in ids[:5]])
            with pytest.raises(DuplicateFrameError):
                insert_frame(gmap, f, p)
        f = MapFrame(-3, 1, 3, Pose(0, 0, 0), 1.4, [1])
        with pytest.raises(DuplicateFrameError):
            insert_frame(gmap, f, [positions[1]])
        assert state_digest(gmap) == digest
        assert (gmap.frames.tolist(), gmap.allocate_frame_id()) == (list(range(1, 30)), 30)
        after = select_neighbors(gmap, q, 1.381, 40.0)
        assert after.frame_ids == before.frame_ids
        np.testing.assert_array_equal(after.point_ids, before.point_ids)
        assert audit(gmap) == []

    def test_exclude_client(self):
        gmap = GlobalMap()
        f1, p1 = frame_with_points(1, Pose(0, 0, 0), [1], [[0, 0, 5]], client=1)
        f2, p2 = frame_with_points(2, Pose(1, 0, 0), [2], [[1, 0, 5]], client=2)
        insert_frame(gmap, f1, p1)
        insert_frame(gmap, f2, p2)
        ns = select_neighbors(gmap, Pose(0, 0, 0), 1.4, 40.0, exclude_client=1)
        assert ns.frame_ids == [2]
        np.testing.assert_array_equal(ns.point_ids, [2])


INT64 = np.iinfo(np.int64)


class TestRowsForIds:
    """``rows_for_ids`` against a dict built from the stored ids."""

    @staticmethod
    def assert_matches_dict(gmap, queries):
        queries = np.asarray(queries, dtype=np.int64)
        row_of = {pid: row for row, pid in enumerate(gmap.points.tolist())}
        want = np.array([row_of.get(q, -1) for q in queries.tolist()], dtype=np.int64)
        got = gmap.rows_for_ids(queries)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    def test_empty_map(self):
        gmap = GlobalMap()
        self.assert_matches_dict(gmap, [0, 1, -1, INT64.min, INT64.max, 1])
        assert gmap.rows_for_ids([]).shape == (0,)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_batches(self, seed):
        rng = np.random.default_rng(seed)
        # Negative ids and both int64 extremes are stored too. Frames draw
        # from the pool with replacement, so ids repeat within a frame, and
        # batches of one to three frames repeat them across frames.
        extremes = [INT64.min, INT64.min + 1, -1, 0, INT64.max - 1, INT64.max]
        pool = np.unique(np.concatenate([rng.integers(-500, 500, 120), extremes]))
        gmap = GlobalMap(np_max=40)
        fid = 0
        for _ in range(12):
            frames = []
            for _ in range(int(rng.integers(1, 4))):
                fid += 1
                ids = rng.choice(pool, int(rng.integers(0, 41)))
                frames.append(MapFrame(fid, 1, fid, Pose(0, 0, 0), 1.4, ids))
            heads = np.concatenate([f.header() for f in frames])
            ids = np.concatenate([f.ids for f in frames])
            gmap._append_frames(heads, ids, rng.uniform(-20, 20, (len(ids), 3)), None)
            # Unsorted, with repeats: pool ids (stored or not yet), their
            # neighbours, ids outside the pool and the extremes.
            queries = np.concatenate([
                rng.choice(pool, 40),
                rng.choice(pool[1:-1], 10) + rng.choice([-1, 1], 10),
                rng.integers(-2000, 2000, 20),
                extremes, extremes,
            ]).astype(np.int64)
            rng.shuffle(queries)
            self.assert_matches_dict(gmap, queries)
        assert audit(gmap) == []


class TestPointIndexQueries:
    def test_nearest_rows_match_a_tree_over_all_points(self, rng):
        # Snapped points on a coarse grid tie often; the buffered second wave
        # repeats positions the tree already holds, and so does the tree.
        base = np.round(rng.uniform(-4, 4, (600, 3)))
        gmap = GlobalMap()
        insert_point_cloud(gmap, np.vstack([base, base[:40]]))
        gmap._point_index.rebuild()
        insert_point_cloud(gmap, np.vstack([base[:30], np.round(rng.uniform(-4, 4, (20, 3)))]))
        assert len(buffered_rows(gmap._point_index)) == 50
        positions = gmap.point_positions
        centers = np.vstack([positions[::7], np.round(rng.uniform(-5, 5, (40, 3)) * 2) / 2])
        full = KdTree(positions)
        for k in (1, 2, 7, 33, len(positions) + 3):
            np.testing.assert_array_equal(
                gmap.nearest_point_rows(centers, k), full.query_nearest(centers, k)
            )
        gmap._point_index.rebuild()
        np.testing.assert_array_equal(
            gmap.nearest_point_rows(centers, 7), full.query_nearest(centers, 7)
        )
        assert GlobalMap().nearest_point_rows(np.zeros((2, 3)), 3).shape == (2, 0)

    def test_nearest_rows_at_a_kth_tie_or_one_ulp_apart(self, rng):
        # Around each center: three points at 0.5, a shell of six exactly at
        # 1, one more one ulp beyond 1 (and one alone at 3, one ulp short of
        # another), so as k grows the k-th and (k+1)-th neighbours are
        # exactly tied or one ulp apart. Rows are shuffled, and half of
        # them wait in the side buffer of a tree that far points fill.
        ulp_past = np.nextafter(1.0, 2.0)
        offsets = np.array(
            [[0.5, 0, 0], [0, -0.5, 0], [0, 0, 0.5]]
            + [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
            + [[0, 0, -ulp_past], [3, 0, 0], [0, 0, np.nextafter(3.0, 4.0)]]
        )
        centers = np.array([[0.0, 20.0 * j, 0.0] for j in range(8)])
        positions = (centers[:, None, :] + offsets).reshape(-1, 3)
        positions = positions[rng.permutation(len(positions))]
        half = len(positions) // 2
        gmap = GlobalMap()
        insert_point_cloud(gmap, np.vstack([rng.uniform(500, 600, (600, 3)), positions[:half]]))
        gmap._point_index.rebuild()
        insert_point_cloud(gmap, positions[half:])
        assert len(buffered_rows(gmap._point_index)) == len(positions) - half
        positions = gmap.point_positions
        full = KdTree(positions)
        d2 = np.sum((positions - centers[:, None, :]) ** 2, axis=-1)
        for k in range(1, len(offsets) + 2):
            want = np.argsort(d2, axis=1, kind="stable")[:, :k]
            np.testing.assert_array_equal(full.query_nearest(centers, k), want)
            np.testing.assert_array_equal(gmap.nearest_point_rows(centers, k), want)

    def test_neighbor_rows_gather_each_frames_memberships(self, rng):
        gmap = GlobalMap()
        ids = np.arange(1, 501)
        for fid in range(1, 21):
            listed = rng.choice(ids, int(rng.integers(0, 60)), replace=False)
            frame, pos = frame_with_points(fid, Pose(0, 0, 0), listed, listed[:, None] * [1.0, 0, 0])
            insert_frame(gmap, frame, pos)
        mem_fr, mem_pt = gmap.memberships()
        for _ in range(20):
            frame_rows = rng.choice(20, int(rng.integers(0, 21)), replace=False)
            want = np.unique(mem_pt[np.isin(mem_fr, frame_rows)])
            np.testing.assert_array_equal(_union_rows(gmap, frame_rows), want)


@pytest.fixture
def tree_builds(monkeypatch):
    """The point count of every KdTree the map store builds from now on."""
    builds = []

    class CountingKdTree(KdTree):
        def __init__(self, points):
            builds.append(len(points))
            super().__init__(points)

    monkeypatch.setattr(mapstore, "KdTree", CountingKdTree)
    return builds


class TestIncrementalIndex:
    """The tree-plus-buffer index answers every read as one KdTree over all
    its rows would, however writes and reads interleave, and builds a tree
    only for an index that is read."""

    @staticmethod
    def check_read(index, rows, rng):
        """One read of a random kind, against a KdTree over ``rows``."""
        full = KdTree(rows)
        centers = np.vstack([rows[rng.integers(0, len(rows), 6)],
                             np.round(rng.uniform(-7, 7, (6, 3)) * 2) / 2])
        kind = rng.integers(3)
        if kind == 0:
            r = float(rng.choice([0.5, 1.0, math.sqrt(2), 2.5]))
            allowed = rng.random(len(rows)) < rng.choice([0.05, 0.5, 1.0])
            np.testing.assert_array_equal(index.any_within(centers, r, allowed),
                                          full.any_within(centers, r, allowed))
        elif kind == 1:
            radii = rng.choice([0.0, 1.0, math.sqrt(3), 3.0], len(centers))
            for c, r, cand in zip(centers, radii, index.candidate_rows(centers, radii)):
                assert len(np.unique(cand)) == len(cand)
                inside = cand[np.sum((rows[cand] - c) ** 2, axis=1) <= r * r]
                np.testing.assert_array_equal(np.sort(inside), full.radius_search(c, r))
        else:
            k = int(rng.integers(1, 12))
            np.testing.assert_array_equal(index.query_nearest(centers, k),
                                          full.query_nearest(centers, k))
        # Every read sees a buffer of at most a tenth of its tree.
        limit = max(mapstore._MIN_PENDING, mapstore._REBUILD_FRACTION * len(index._tree))
        assert len(buffered_rows(index)) <= limit

    class Table:
        """An append-only table of positions in reserved room, as the map
        keeps them; ``append`` hands the index its rows."""

        def __init__(self, index):
            self.index, self.pos, self.count = index, np.empty((0, 3)), 0

        def append(self, batch):
            end = self.count + len(batch)
            (self.pos,) = mapstore._reserve((self.pos,), end, 16)
            self.pos[self.count : end] = batch
            self.count = end
            self.index.extend(self.pos[:end])

        @property
        def rows(self):
            return self.pos[: self.count]

    def test_reads_match_one_tree_over_all_rows(self, rng):
        # Points snapped to a coarse grid tie often, in distance and in
        # position; write-only bursts let the buffer outgrow its share.
        for _ in range(5):
            index = mapstore._IncrementalIndex()
            table = self.Table(index)
            for _ in range(60):
                burst = int(rng.integers(1, 4)) if rng.random() < 0.2 else 1
                for _ in range(burst):
                    table.append(np.round(rng.uniform(-6, 6, (int(rng.choice([1, 3, 12, 90])), 3))))
                if rng.random() < 0.6:
                    self.check_read(index, table.rows, rng)
                assert len(index) == table.count
                np.testing.assert_array_equal(index._tree.points, table.rows[: len(index._tree)])

    def test_only_a_read_index_is_built(self, rng, tree_builds):
        index = mapstore._IncrementalIndex()
        table = self.Table(index)
        table.append(rng.uniform(-9, 9, (1000, 3)))
        for _ in range(50):
            table.append(rng.uniform(-9, 9, (7, 3)))
        assert tree_builds == []  # a write-only burst builds nothing
        index.candidate_rows(np.zeros((1, 3)), [1.0])
        index.query_nearest(np.zeros((2, 3)), 3)
        index.any_within(np.zeros((2, 3)), 1.0, np.ones(1350, dtype=bool))
        assert tree_builds == [1350]  # the first read builds once
        # Once read, writes rebuild at the same threshold as ever: on the
        # extend that takes the buffer past a tenth of the tree.
        for _ in range(135):
            table.append(rng.uniform(-9, 9, (1, 3)))
        assert tree_builds == [1350]
        table.append(rng.uniform(-9, 9, (1, 3)))
        assert tree_builds == [1350, 1486]
        # That build was not read: writes alone build nothing again.
        table.append(rng.uniform(-9, 9, (400, 3)))
        assert tree_builds == [1350, 1486]
        index.candidate_rows(np.zeros((1, 3)), [1.0])
        assert tree_builds == [1350, 1486, 1886]


class TestAudit:
    def test_clean_after_random_inserts(self, rng):
        gmap = GlobalMap()
        insert_point_cloud(gmap, rng.uniform(-40, 40, (1000, 3)))
        assert audit(gmap) == []

    def test_detects_missing_point(self, rng):
        gmap = GlobalMap()
        insert_point_cloud(gmap, rng.uniform(-40, 40, (50, 3)))
        # Row 0 drops out of the id order.
        gmap._by_id = gmap._by_id[gmap._by_id != 0]
        assert any("id index" in v for v in audit(gmap))

    def test_detects_corrupted_observation_count(self, rng):
        gmap = GlobalMap()
        insert_point_cloud(gmap, rng.uniform(-40, 40, (50, 3)))
        gmap._pt_obs[0] += 5
        assert any("observation_count" in v for v in audit(gmap))

    def test_detects_id_index_pointing_at_another_row(self, rng):
        gmap = GlobalMap()
        insert_point_cloud(gmap, rng.uniform(-40, 40, (50, 3)))
        # Point 0's place in the id order now holds row 1.
        gmap._by_id[gmap._by_id == 0] = 1
        assert any("id index" in v for v in audit(gmap))

    def test_detects_id_order_out_of_order(self, rng):
        gmap = GlobalMap()
        insert_point_cloud(gmap, rng.uniform(-40, 40, (50, 3)))
        # Still every row once, but two ids out of order.
        gmap._by_id[[0, 1]] = gmap._by_id[[1, 0]]
        assert any("id index" in v for v in audit(gmap))

    def test_detects_index_divergence(self, rng):
        gmap = GlobalMap()
        insert_point_cloud(gmap, rng.uniform(-40, 40, (50, 3)))
        # The index is handed one row more than the table holds.
        gmap._point_index.extend(np.vstack([gmap.point_positions, np.zeros((1, 3))]))
        assert any("point index" in v for v in audit(gmap))

    def test_detects_a_moved_indexed_position(self, rng):
        gmap = GlobalMap()
        insert_point_cloud(gmap, rng.uniform(-40, 40, (50, 3)), frames_of=10)
        gmap._frame_index.rebuild()
        assert audit(gmap) == []
        # The frame tree holds a copy of the strided pose column.
        gmap._frames["pose"][0, 0] += 1.0
        assert any("frame index" in v for v in audit(gmap))

    def test_point_positions_have_one_copy(self, rng):
        # The point index reads the point table itself: the table's views
        # are read-only, and the tree and the buffer's own tree share the
        # table's memory.
        gmap = GlobalMap()
        insert_point_cloud(gmap, rng.uniform(-40, 40, (500, 3)))
        for view in (gmap.point_positions, gmap.point_descriptors, gmap.point_observation_counts):
            with pytest.raises(ValueError):
                view[0] = 0
        gmap._point_index.rebuild()
        insert_point_cloud(gmap, rng.uniform(-40, 40, (20, 3)))
        index = gmap._point_index
        assert len(index._tree) == 500 and len(index) == 520
        assert np.shares_memory(index._tree.points, gmap._pt_pos)
        assert np.shares_memory(index._tree_of_buffer().points, gmap._pt_pos)
        assert audit(gmap) == []

    def test_detects_frame_offsets_and_axes_out_of_step(self, rng):
        gmap = GlobalMap()
        insert_point_cloud(gmap, rng.uniform(-40, 40, (50, 3)), frames_of=20)
        gmap._frames["id_count"][1] += 1
        assert any("id counts" in v for v in audit(gmap))
        gmap._frames["id_count"][1] -= 1
        gmap._frames["pose"][2, 4] += 0.5
        assert audit(gmap) == ["frame axes disagree with the frames' poses"]


class TestSnapshot:
    def build_map(self, rng):
        gmap = GlobalMap(np_max=64)
        for fid in range(1, 6):
            ids = np.arange(fid * 10, fid * 10 + 20)
            f, p = frame_with_points(
                fid, Pose(*rng.uniform(-5, 5, 3), yaw=0.1 * fid), ids,
                rng.uniform(-20, 20, (20, 3)), client=fid % 2,
            )
            insert_frame(gmap, f, p)
        return gmap

    def test_roundtrip(self, tmp_path, rng):
        gmap = self.build_map(rng)
        path = tmp_path / "map.mpps"
        save_snapshot(gmap, path)
        loaded = load_snapshot(path)
        assert state_digest(loaded) == state_digest(gmap)
        assert audit(loaded) == []
        assert loaded.np_max == gmap.np_max
        rows = loaded.rows_for_ids(gmap.points)
        np.testing.assert_array_equal(loaded.point_descriptors[rows], gmap.point_descriptors)
        np.testing.assert_array_equal(
            loaded.point_observation_counts[rows], gmap.point_observation_counts
        )

    def test_bytes_and_digest_pinned(self, tmp_path):
        # The digest was computed by the per-point map store this one
        # replaced; the bytes are those of snapshot version 2.
        scene = generate_scene(11, np.array([[-10.0, -15.0, -8.0], [50.0, 15.0, 12.0]]), 1500)
        gmap = GlobalMap(np_max=120)
        shift = RigidTransform(np.eye(3), np.array([0.25, -0.5, 0.125]))
        rng = np.random.default_rng(4)
        for client, transform in ((1, RigidTransform.identity()), (2, shift)):
            counters = np.zeros(len(scene), dtype=np.int64)
            for k, x in enumerate(np.arange(0.0, 30.0, 3.0)):
                pose = Pose(x, 0.5 * client, 1.5, 0.0, math.pi / 2, 0.1 * k)
                kf = observe(scene, pose, SIM_INTR, 120, 0.05, rng, counters, keyframe_id=k)
                integrate_upload(gmap, kf.to_upload_msg(client), transform)
        path = tmp_path / "map.mpps"
        save_snapshot(gmap, path)
        raw = path.read_bytes()
        # 16 header bytes, 64 per point, 74 per frame and 8 per listed id.
        assert (len(gmap.frames), len(gmap.points), len(raw)) == (20, 437, 48664)
        assert hashlib.sha256(raw).hexdigest() == (
            "519dd52ab14490718968d01e0dd6600a4b773ea5d3c980a95f7fb7ef9e802124"
        )
        assert state_digest(gmap) == "96a5fd8b738bf3147a299cae04c4173128f54f5f"
        loaded = load_snapshot(path)
        assert state_digest(loaded) == state_digest(gmap)
        save_snapshot(loaded, tmp_path / "again.mpps")
        assert (tmp_path / "again.mpps").read_bytes() == raw

    def test_client_and_keyframe_ids_outside_u32_refused(self, tmp_path):
        # The snapshot and the wire carry client and keyframe ids as u32. A
        # frame whose ids do not fit is refused and leaves the map as it
        # was, so every stored frame survives a save and load whole.
        gmap = GlobalMap()
        refused = []
        for client, keyframe in [(0, 0), (2**32 - 1, 2**32 - 1), (2**32 + 5, 2**32 + 7),
                                 (-1, 3), (3, -1), (7, 2**32)]:
            fid = gmap.allocate_frame_id()
            frame = MapFrame(fid, client, keyframe, Pose(fid, 0, 0, yaw=0.5), 1.4, [fid, 99])
            before = (state_digest(gmap), table_of(gmap))
            try:
                insert_frame(gmap, frame, [[fid, 0, 5], [0, 0, 9]])
            except ValueError:
                refused.append((client, keyframe))
                assert (state_digest(gmap), table_of(gmap)) == before
                assert audit(gmap) == []
        assert refused == [(2**32 + 5, 2**32 + 7), (-1, 3), (3, -1), (7, 2**32)]
        save_snapshot(gmap, tmp_path / "map.mpps")
        loaded = load_snapshot(tmp_path / "map.mpps")
        assert table_of(loaded) == table_of(gmap)
        assert [f[1:3] for f in table_of(loaded)] == [(0, 0), (2**32 - 1, 2**32 - 1)]

    def test_magic_and_version_checked(self, tmp_path, rng):
        path = tmp_path / "map.mpps"
        save_snapshot(self.build_map(rng), path)
        raw = bytearray(path.read_bytes())
        assert raw[:4] == b"MPPS"
        raw[0] = ord(b"X")
        bad = tmp_path / "bad.mpps"
        bad.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError):
            load_snapshot(bad)
        raw[0] = ord(b"M")
        for version in (77, 1):  # version 1 stored ownership beside the points
            struct.pack_into("<H", raw, 4, version)
            bad.write_bytes(bytes(raw))
            with pytest.raises(SnapshotError, match="version"):
                load_snapshot(bad)

    def test_truncation_detected(self, tmp_path, rng):
        path = tmp_path / "map.mpps"
        save_snapshot(self.build_map(rng), path)
        data = path.read_bytes()
        bad = tmp_path / "trunc.mpps"
        bad.write_bytes(data[: len(data) // 2])
        with pytest.raises(SnapshotError):
            load_snapshot(bad)

    def test_point_table_past_end_of_file_detected(self, tmp_path):
        # The header announces three point records; the file holds one.
        raw = (
            b"MPPS" + struct.pack("<HHII", 2, 300, 0, 3) + struct.pack("<q3d", 1, 0, 0, 0)
            + bytes(32)
        )
        bad = tmp_path / "points.mpps"
        bad.write_bytes(raw)
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(bad)

    def test_trailing_bytes_are_snapshot_error(self, tmp_path, rng):
        path = tmp_path / "map.mpps"
        save_snapshot(self.build_map(rng), path)
        bad = tmp_path / "trailing.mpps"
        bad.write_bytes(path.read_bytes() + bytes(1))
        with pytest.raises(SnapshotError, match="trailing"):
            load_snapshot(bad)

    @pytest.mark.parametrize("listed_id", [999_999, 10])
    def test_inconsistent_ids_raise_snapshot_error(self, tmp_path, rng, listed_id):
        # The last eight bytes are the last frame's last point id (69, held
        # by no other frame). Listing an id absent from the point table, or
        # one that leaves point 69 without a frame, is a bad snapshot.
        path = tmp_path / "map.mpps"
        save_snapshot(self.build_map(rng), path)
        data = path.read_bytes()
        assert struct.unpack("<q", data[-8:]) == (69,)
        bad = tmp_path / "ids.mpps"
        bad.write_bytes(data[:-8] + struct.pack("<q", listed_id))
        with pytest.raises(SnapshotError):
            load_snapshot(bad)

    def test_frame_listed_twice_is_snapshot_error(self, tmp_path, rng):
        # The last frame (5) lists 20 ids; give it frame 4's id.
        path = tmp_path / "map.mpps"
        save_snapshot(self.build_map(rng), path)
        data = bytearray(path.read_bytes())
        at = len(data) - 8 * 20 - FRAME_HEAD
        assert struct.unpack_from("<q", data, at) == (5,)
        struct.pack_into("<q", data, at, 4)
        bad = tmp_path / "twice.mpps"
        bad.write_bytes(bytes(data))
        with pytest.raises(SnapshotError):
            load_snapshot(bad)

    def test_frames_out_of_id_order_is_snapshot_error(self, tmp_path, rng):
        # The last frame (5) gets id 0, below every frame stored before it.
        path = tmp_path / "map.mpps"
        save_snapshot(self.build_map(rng), path)
        data = bytearray(path.read_bytes())
        at = len(data) - 8 * 20 - FRAME_HEAD
        assert struct.unpack_from("<q", data, at) == (5,)
        struct.pack_into("<q", data, at, 0)
        bad = tmp_path / "order.mpps"
        bad.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="frame 0 is not above frame 4"):
            load_snapshot(bad)

    def test_nonfinite_position_is_snapshot_error(self, tmp_path, rng):
        path = tmp_path / "map.mpps"
        save_snapshot(self.build_map(rng), path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<d", data, 16 + 8, math.inf)  # first record's x
        bad = tmp_path / "inf.mpps"
        bad.write_bytes(bytes(data))
        with pytest.raises(SnapshotError):
            load_snapshot(bad)

    def test_nonfinite_pose_is_snapshot_error(self, tmp_path, rng):
        # The first frame follows the 60 point records of frames 1-5.
        path = tmp_path / "map.mpps"
        save_snapshot(self.build_map(rng), path)
        data = bytearray(path.read_bytes())
        at = 16 + 64 * 60
        assert struct.unpack_from("<q", data, at) == (1,)
        struct.pack_into("<d", data, at + 16, math.nan)  # its pose's x
        bad = tmp_path / "pose.mpps"
        bad.write_bytes(bytes(data))
        with pytest.raises(SnapshotError):
            load_snapshot(bad)

    @pytest.mark.parametrize("fov", [0.0, math.pi, math.nan])
    def test_fov_outside_open_range_is_snapshot_error(self, tmp_path, rng, fov):
        path = tmp_path / "map.mpps"
        save_snapshot(self.build_map(rng), path)
        data = bytearray(path.read_bytes())
        at = len(data) - 8 * 20 - FRAME_HEAD  # the last frame
        struct.pack_into("<d", data, at + 64, fov)
        bad = tmp_path / "fov.mpps"
        bad.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="fov"):
            load_snapshot(bad)

    def test_frame_over_capacity_is_snapshot_error(self, tmp_path, rng):
        # Every frame lists 20 ids; the header's np_max now allows 19.
        path = tmp_path / "map.mpps"
        save_snapshot(self.build_map(rng), path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<H", data, 6, 19)
        bad = tmp_path / "capacity.mpps"
        bad.write_bytes(bytes(data))
        with pytest.raises(SnapshotError):
            load_snapshot(bad)

    def test_table_id_listed_twice_is_snapshot_error(self, tmp_path, rng):
        # The first two records are points 10 and 11; make both 10.
        path = tmp_path / "map.mpps"
        save_snapshot(self.build_map(rng), path)
        data = bytearray(path.read_bytes())
        assert struct.unpack_from("<q", data, 16 + 64) == (11,)
        struct.pack_into("<q", data, 16 + 64, 10)
        bad = tmp_path / "twice.mpps"
        bad.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="twice"):
            load_snapshot(bad)

    def test_table_out_of_id_order_is_snapshot_error(self, tmp_path, rng):
        # The first two records are points 10 and 11; swap them.
        path = tmp_path / "map.mpps"
        save_snapshot(self.build_map(rng), path)
        data = bytearray(path.read_bytes())
        first, second = data[16:80], data[80:144]
        assert struct.unpack_from("<q", first) == (10,)
        assert struct.unpack_from("<q", second) == (11,)
        data[16:144] = second + first
        bad = tmp_path / "order.mpps"
        bad.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="id order"):
            load_snapshot(bad)

    @pytest.mark.parametrize("np_max", [-5, 0, 1, 300, 65535, 65536, 70000])
    def test_every_np_max_a_map_accepts_round_trips(self, tmp_path, np_max):
        # The snapshot header and the query's np hint hold np_max as a u16.
        if not 1 <= np_max <= 0xFFFF:
            with pytest.raises(ValueError, match="np_max"):
                GlobalMap(np_max=np_max)
            return
        path = tmp_path / "map.mpps"
        save_snapshot(GlobalMap(np_max=np_max), path)
        assert load_snapshot(path).np_max == np_max

    def test_header_np_max_of_zero_is_snapshot_error(self, tmp_path):
        path = tmp_path / "map.mpps"
        save_snapshot(GlobalMap(), path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<H", data, 6, 0)
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="np_max"):
            load_snapshot(path)

    def test_short_header_is_snapshot_error(self, tmp_path):
        bad = tmp_path / "short.mpps"
        bad.write_bytes(b"MPPS\x01\x00")
        with pytest.raises(SnapshotError):
            load_snapshot(bad)

    def test_failed_write_keeps_previous_file(self, tmp_path, rng, monkeypatch):
        path = tmp_path / "map.mpps"
        save_snapshot(self.build_map(rng), path)
        before = path.read_bytes()

        class HalfWritten:
            """A file that takes half of what is written, then fails as a full disk does."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                data = memoryview(data).cast("B")
                self.fh.write(data[: len(data) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        real_open = open
        monkeypatch.setattr(
            mapstore, "open", lambda *a, **kw: HalfWritten(real_open(*a, **kw)), raising=False
        )
        other = GlobalMap(np_max=64)
        insert_point_cloud(other, rng.uniform(-20, 20, (200, 3)), frames_of=64)
        with pytest.raises(OSError):
            save_snapshot(other, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["map.mpps"]


def replay_load_snapshot(path) -> GlobalMap:
    """The frame-by-frame loader, kept as the oracle: parse a valid
    snapshot record by record and insert its frames one at a time."""
    data = Path(path).read_bytes()
    _, np_max, n_frames, n_points = struct.unpack_from("<HHII", data, 4)
    off, stored = 16, {}
    for _ in range(n_points):
        pid, x, y, z = struct.unpack_from("<q3d", data, off)
        desc = np.frombuffer(data, np.uint8, 32, off + 32)
        stored[pid] = ((x, y, z), desc)
        off += 64
    gmap = GlobalMap(np_max=np_max)
    for _ in range(n_frames):
        fid, client, kf = struct.unpack_from("<qII", data, off)
        pose = Pose(*struct.unpack_from("<6d", data, off + 16))
        fov, n = struct.unpack_from("<dH", data, off + 64)
        ids = np.frombuffer(data, "<i8", n, off + FRAME_HEAD)
        off += FRAME_HEAD + 8 * n
        frame = MapFrame(fid, client, kf, pose, fov, ids)
        positions = np.array([stored[i][0] for i in ids.tolist()]).reshape(-1, 3)
        descriptors = np.array([stored[i][1] for i in ids.tolist()]).reshape(-1, 32)
        insert_frame(gmap, frame, positions, descriptors)
    return gmap


# The snapshot's point record, and its frame record before the point ids.
REFERENCE_POINT = np.dtype([("id", "<i8"), ("position", "<f8", (3,)), ("descriptor", "u1", (32,))])
REFERENCE_FRAME = struct.Struct("<qII6ddH")


def reference_load_snapshot(path) -> GlobalMap:
    """The per-frame snapshot reader, kept as the reference for
    ``load_snapshot``'s decisions: each frame record is unpacked with
    ``struct`` into a ``MapFrame`` and a ``Pose`` (which wraps an angle into
    (-pi, pi]), and the frames are stored in one batch."""
    data = Path(path).read_bytes()
    if data[:4] != b"MPPS" or len(data) < 16:
        raise SnapshotError("bad magic or short header")
    version, np_max, n_frames, n_points = struct.unpack_from("<HHII", data, 4)
    off = 16 + REFERENCE_POINT.itemsize * n_points
    if version != 2 or off > len(data):
        raise SnapshotError("unsupported version or truncated point table")
    table = np.frombuffer(data, dtype=REFERENCE_POINT, count=n_points, offset=16)
    try:
        frames = []
        for _ in range(n_frames):
            fid, client, keyframe, *pose, fov, np_new = REFERENCE_FRAME.unpack_from(data, off)
            off += REFERENCE_FRAME.size
            ids = np.frombuffer(data, dtype="<i8", count=np_new, offset=off)
            off += 8 * np_new
            frames.append(MapFrame(fid, client, keyframe, Pose(*pose), fov, ids))
    except (struct.error, ValueError) as e:
        raise SnapshotError(f"malformed snapshot at offset {off}: {e}") from e
    if off != len(data):
        raise SnapshotError("trailing bytes after the last frame")
    ids = table["id"]
    if not (ids[1:] > ids[:-1]).all():
        raise SnapshotError("point table not in strictly ascending id order")
    listed_ids = np.concatenate([f.ids for f in frames] + [np.empty(0, dtype=np.int64)])
    at = np.searchsorted(ids, listed_ids)
    listed = at < n_points
    listed[listed] = ids[at[listed]] == listed_ids[listed]
    if not listed.all():
        raise SnapshotError("a frame lists a point absent from the table")
    heads = np.concatenate([f.header() for f in frames] + [np.zeros(0, FRAME_DTYPE)])
    try:
        gmap = GlobalMap(np_max=np_max)
        gmap._append_frames(heads, listed_ids, table["position"][at], table["descriptor"][at])
    except ValueError as e:
        raise SnapshotError(f"malformed snapshot: {e}") from e
    if len(gmap.points) < n_points:
        raise SnapshotError("a table point is listed by no frame")
    return gmap


def assert_same_map(a: GlobalMap, b: GlobalMap):
    """Every column, membership, id order and frame of two maps are equal."""
    assert a.np_max == b.np_max and a.allocate_frame_id() == b.allocate_frame_id()
    for name in ("points", "point_positions", "point_descriptors", "point_observation_counts"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    for x, y in zip(a.memberships(), b.memberships()):
        np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(a._by_id, b._by_id)
    assert a._fr_count == b._fr_count
    n = a._fr_count
    assert a._frames[:n].tobytes() == b._frames[:n].tobytes()
    np.testing.assert_array_equal(a._fr_axis[:n], b._fr_axis[:n])
    assert audit(a) == [] and audit(b) == []


def rows_within(gmap: GlobalMap, center, r: float) -> np.ndarray:
    """Ascending rows of the points within r of ``center`` (inclusive), from
    the point index's candidates."""
    (rows,) = gmap.point_candidate_rows([center], [r])
    d2 = np.sum((gmap.point_positions[rows] - center) ** 2, axis=1)
    return np.sort(rows[d2 <= r * r])


def assert_same_answers(a: GlobalMap, b: GlobalMap, rng, n=40):
    """The point-index and neighbor queries answer alike at random centers."""
    positions = a.point_positions
    if len(positions):
        lo, hi = positions.min(axis=0) - 5, positions.max(axis=0) + 5
    else:
        lo, hi = np.full(3, -5.0), np.full(3, 5.0)
    centers = np.vstack([rng.uniform(lo, hi, (n, 3)), positions[:: max(1, len(positions) // 10)]])
    for r in (0.5, 3.0, 12.0):
        for c in centers[:15]:
            np.testing.assert_array_equal(rows_within(a, c, r), rows_within(b, c, r))
        rows = rng.choice(len(positions) + 1, len(positions) // 3, replace=False)
        rows = rows[rows < len(positions)]
        np.testing.assert_array_equal(
            a.any_point_within(centers, r, rows), b.any_point_within(centers, r, rows)
        )
    for k in (1, 5, 40):
        np.testing.assert_array_equal(
            a.nearest_point_rows(centers, k), b.nearest_point_rows(centers, k)
        )
    for c in centers[:20]:
        q = Pose(*c, yaw=rng.uniform(-3, 3), pitch=rng.uniform(-0.5, 0.5))
        for exclude in (None, 1):
            np.testing.assert_array_equal(
                neighbor_point_rows(a, q, 1.4, 40.0, exclude),
                neighbor_point_rows(b, q, 1.4, 40.0, exclude),
            )


@pytest.fixture()
def scenario_maps(monkeypatch):
    """Run a scenario and return the map its server built."""

    def run(cfg):
        made = []

        def capture(*args, **kwargs):
            made.append(GlobalMap(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(scenario, "GlobalMap", capture)
        scenario.run_scenario(cfg)
        return made[-1]

    return run


class TestBulkLoad:
    """A loaded map equals the frame-by-frame replay of the same snapshot."""

    def check(self, gmap, tmp_path, rng):
        path = tmp_path / "map.mpps"
        save_snapshot(gmap, path)
        bulk, replay = load_snapshot(path), replay_load_snapshot(path)
        assert_same_map(bulk, replay)
        assert_same_answers(bulk, replay, rng)
        # Both keep growing alike through insert_frame.
        cloud = np.vstack([bulk.point_positions[:50], rng.uniform(-30, 30, (700, 3))])
        known = np.concatenate([bulk.points[: bulk.np_max - 1], [10**9 + 800]])
        known_pos = rng.uniform(-1, 1, (len(known), 3))
        for gm in (bulk, replay):
            insert_point_cloud(gm, cloud, start_id=10**9, frames_of=gm.np_max)
            fid = gm.allocate_frame_id()
            frame = MapFrame(fid, 9, 0, Pose(1, 2, 1.5), 1.4, known)
            insert_frame(gm, frame, known_pos)
        assert_same_map(bulk, replay)
        assert_same_answers(bulk, replay, rng)

    @pytest.mark.parametrize(
        "build",
        [
            planted_change_config,
            lambda: randomized_overlap_config(2),
            lambda: two_user_config(length=30.0, landmarks=6000),
        ],
        ids=["planted-change", "randomized-overlap", "two-user"],
    )
    def test_scenario_maps(self, tmp_path, scenario_maps, build):
        gmap = scenario_maps(build())
        assert (gmap.point_observation_counts > 1).any()
        self.check(gmap, tmp_path, np.random.default_rng(7))

    def test_repeated_ids_and_empty_frames(self, tmp_path, rng):
        gmap = GlobalMap(np_max=16)
        specs = [(2, []), (3, [8, 5]), (4, [5, 6, 5, 5]), (6, []), (9, [6, 7, 8, 7])]
        for fid, ids in specs:
            pos = rng.uniform(-3, 3, (len(ids), 3))
            frame, pos = frame_with_points(fid, Pose(fid, 0, 1), ids, pos)
            insert_frame(gmap, frame, pos)
        self.check(gmap, tmp_path, rng)
        # Frames load in file order (by frame id); new ids take rows in order
        # of first appearance over them.
        loaded = load_snapshot(tmp_path / "map.mpps")
        assert loaded.frames.tolist() == [2, 3, 4, 6, 9]
        np.testing.assert_array_equal(loaded.points, [8, 5, 6, 7])
        np.testing.assert_array_equal(loaded.point_observation_counts, [2, 2, 2, 1])

    def test_no_frames(self, tmp_path, rng):
        self.check(GlobalMap(np_max=300), tmp_path, rng)
        loaded = load_snapshot(tmp_path / "map.mpps")
        assert (len(loaded.frames), len(loaded.points), loaded.allocate_frame_id()) == (0, 0, 1)

    def test_one_tree_build_per_index(self, tmp_path, monkeypatch, scenario_maps):
        path = tmp_path / "map.mpps"
        save_snapshot(scenario_maps(planted_change_config()), path)
        builds = []

        class CountingKdTree(KdTree):
            def __init__(self, points):
                builds.append(len(points))
                super().__init__(points)

        monkeypatch.setattr(mapstore, "KdTree", CountingKdTree)
        replay = replay_load_snapshot(path)
        replay.nearest_point_rows(np.zeros((1, 3)), 1)
        assert builds == [len(replay.points)]  # the spy sees a read's build
        builds.clear()
        gmap = load_snapshot(path)
        assert len(builds) <= 2
        assert sorted(builds) == [len(gmap.frames), len(gmap.points)]


def load_or_none(loader, path):
    """The map ``loader`` reads from ``path``, or None when it raises
    SnapshotError."""
    try:
        return loader(path)
    except SnapshotError:
        return None


class TestSnapshotReader:
    """``load_snapshot`` against the per-frame reference reader over random
    maps, their truncations and single-field corruptions: the same accept
    or refuse decision, and on accept the same map, but for a pose angle
    outside (-pi, pi], which the reference wraps and ``load_snapshot``
    refuses."""

    @staticmethod
    def random_map(rng) -> GlobalMap:
        # Repeated ids, empty frames, negative frame ids and u32-extreme
        # client and keyframe ids.
        gmap = GlobalMap(np_max=int(rng.integers(4, 12)))
        pool = np.unique(rng.integers(-50, 50, 40))
        fid = int(rng.integers(-5, 5))
        for _ in range(int(rng.integers(0, 7))):
            fid += int(rng.integers(1, 4))
            ids = rng.choice(pool, int(rng.integers(0, gmap.np_max + 1)))
            pose = Pose(*rng.uniform(-20, 20, 3), *rng.uniform(-math.pi, math.pi, 3))
            client, keyframe = (int(v) for v in rng.choice([0, 1, 7, 2**32 - 1], 2))
            frame = MapFrame(fid, client, keyframe, pose, float(rng.uniform(0.1, 3.0)), ids)
            insert_frame(gmap, frame, rng.uniform(-30, 30, (len(ids), 3)),
                         rng.integers(0, 256, (len(ids), 32)))
        return gmap

    @staticmethod
    def fields(data) -> list[tuple[int, str, str]]:
        """(offset, struct format, kind) of the fields of a valid snapshot."""
        _, _, n_frames, n_points = struct.unpack_from("<HHII", data, 4)
        out = [(4, "<H", "u"), (6, "<H", "u"), (8, "<I", "u"), (12, "<I", "u")]
        for at in range(16, 16 + 64 * n_points, 64):
            out += [(at, "<q", "id"), (at + 32, "<B", "u"), (at + 63, "<B", "u")]
            out += [(at + 8 * c, "<d", "position") for c in (1, 2, 3)]
        at = 16 + 64 * n_points
        for _ in range(n_frames):
            (n,) = struct.unpack_from("<H", data, at + 72)
            out += [(at, "<q", "id"), (at + 8, "<I", "u"), (at + 12, "<I", "u")]
            out += [(at + 16 + 8 * c, "<d", "position" if c < 3 else "angle") for c in range(6)]
            out += [(at + 64, "<d", "fov"), (at + 72, "<H", "u")]
            out += [(at + 74 + 8 * k, "<q", "id") for k in range(n)]
            at += 74 + 8 * n
        return out

    @staticmethod
    def value(rng, fmt: str, kind: str):
        pi = math.pi
        choices = {
            "u": [0, 1, 2, int(rng.integers(0, 16)), 2 ** (8 * struct.calcsize(fmt)) - 1],
            "id": [int(rng.integers(-60, 60)), INT64.min, INT64.max],
            "position": [math.nan, math.inf, -math.inf, 1e300, float(rng.uniform(-50, 50)), -0.0],
            "angle": [math.nan, math.inf, pi, -pi, np.nextafter(pi, 4.0), np.nextafter(-pi, 0.0),
                      4.0, -7.5, float(rng.uniform(-pi, pi)), -0.0],
            "fov": [0.0, pi, math.nan, 1.0, -1.0, np.nextafter(0.0, 1.0), np.nextafter(pi, 0.0)],
        }[kind]
        return choices[int(rng.integers(len(choices)))]

    def test_decisions_and_maps_match_the_per_frame_reader(self, tmp_path):
        rng = np.random.default_rng(18)
        path = tmp_path / "map.mpps"
        decided = {True: 0, False: 0}
        wrapped = 0
        for _ in range(40):
            save_snapshot(self.random_map(rng), path)
            data = path.read_bytes()
            cases = [(data[: int(cut)], None) for cut in rng.integers(0, len(data), 6)]
            cases.append((data + bytes(int(rng.integers(1, 9))), None))
            fields = self.fields(data)
            for i in rng.choice(len(fields), 14):
                at, fmt, kind = fields[i]
                raw = bytearray(data)
                v = self.value(rng, fmt, kind)
                struct.pack_into(fmt, raw, at, v)
                cases.append((bytes(raw), v if kind == "angle" else None))
            for raw, angle in cases:
                path.write_bytes(raw)
                got = load_or_none(load_snapshot, path)
                want = load_or_none(reference_load_snapshot, path)
                if angle is not None and math.isfinite(angle) and not -math.pi < angle <= math.pi:
                    # The one difference: the reference wraps such an
                    # angle, load_snapshot refuses it as the wire does.
                    assert want is not None and got is None
                    wrapped += 1
                    continue
                assert (got is None) == (want is None)
                decided[got is None] += 1
                if got is not None:
                    assert_same_map(got, want)
                    assert state_digest(got) == state_digest(want)
        assert min(decided.values()) >= 100 and wrapped >= 5, (decided, wrapped)
