import dataclasses
import hashlib
import math
import struct

import numpy as np
import pytest

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
    save_snapshot,
    select_neighbors,
    state_digest,
)
from comap.sim import generate_scene, observe
from comap.spatial import KdTree

from conftest import SIM_INTR, insert_point_cloud


def frame_with_points(fid, pose, ids, positions, np_max=300, client=1, fov=1.4):
    frame = MapFrame.create(fid, client, fid, pose, fov, ids, np_max)
    return frame, np.asarray(positions, dtype=np.float64).reshape(-1, 3)


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
        fid = insert_frame(gmap, frame, pts)
        with pytest.raises(dataclasses.FrozenInstanceError):
            gmap.frames[fid].pose = Pose(500, 0, 0)
        with pytest.raises(ValueError):
            gmap.frames[fid].point_ids[0] = 99

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

    def test_capacity_violation(self):
        gmap = GlobalMap(np_max=4)
        with pytest.raises(FrameTooLargeError):
            MapFrame.create(1, 1, 1, Pose(0, 0, 0), 1.4, range(5), np_max=4)

    def test_nonfinite_position_rejected(self):
        gmap = GlobalMap()
        f, p = frame_with_points(1, Pose(0, 0, 0), [1], [[np.nan, 0, 0]])
        with pytest.raises(ValueError):
            insert_frame(gmap, f, p)

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

    def test_point_ids_padded_to_capacity(self):
        gmap = GlobalMap(np_max=8)
        f, p = frame_with_points(1, Pose(0, 0, 0), [1, 2], [[0, 0, 0], [1, 1, 1]], np_max=8)
        insert_frame(gmap, f, p)
        stored = gmap.frames[1]
        assert len(stored.point_ids) == 8
        assert stored.np_new == 2
        assert (stored.point_ids[2:] == -1).all()

    def test_footprint_constant_regardless_of_np_new(self, rng):
        gmap = GlobalMap(np_max=50)
        base = gmap.frame_footprint_bytes()
        for fid, n in enumerate([1, 10, 50], start=1):
            f, p = frame_with_points(
                fid, Pose(0, 0, 0), range(fid * 100, fid * 100 + n),
                rng.uniform(-5, 5, (n, 3)), np_max=50,
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
        np.testing.assert_array_equal(gmap.frames[2].ids, [9, 6, 9, 6, 4])
        assert audit(gmap) == []

    def test_positions_must_align_with_ids(self):
        gmap = GlobalMap()
        f, p = frame_with_points(1, Pose(0, 0, 0), [1, 2], [[0, 0, 0], [1, 1, 1]])
        with pytest.raises(ValueError):
            insert_frame(gmap, f, p[:1])
        assert len(gmap.points) == 0 and not gmap.frames

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
        specs = []
        for fid in range(1, 30):
            pose = Pose(*rng.uniform(-30, 30, 2), 0, yaw=rng.uniform(-3, 3))
            ids = rng.choice(np.arange(1, 500), size=20, replace=False)
            specs.append((fid, pose, ids))
        positions = {i: rng.uniform(-30, 30, 3) for i in range(1, 500)}

        def build(order):
            gmap = GlobalMap()
            for fid, pose, ids in order:
                f, p = frame_with_points(fid, pose, ids, [positions[int(i)] for i in ids])
                insert_frame(gmap, f, p)
            return gmap

        q = Pose(0, 0, 0, yaw=0.3)
        a = select_neighbors(build(specs), q, 1.381, 40.0)
        b = select_neighbors(build(list(reversed(specs))), q, 1.381, 40.0)
        assert a.frame_ids == b.frame_ids
        np.testing.assert_array_equal(a.point_ids, b.point_ids)
        np.testing.assert_array_equal(a.point_positions, b.point_positions)

    def test_exclude_client(self):
        gmap = GlobalMap()
        f1, p1 = frame_with_points(1, Pose(0, 0, 0), [1], [[0, 0, 5]], client=1)
        f2, p2 = frame_with_points(2, Pose(1, 0, 0), [2], [[1, 0, 5]], client=2)
        insert_frame(gmap, f1, p1)
        insert_frame(gmap, f2, p2)
        ns = select_neighbors(gmap, Pose(0, 0, 0), 1.4, 40.0, exclude_client=1)
        assert ns.frame_ids == [2]
        np.testing.assert_array_equal(ns.point_ids, [2])


class TestPointIndexQueries:
    def test_nearest_rows_match_a_tree_over_all_points(self, rng):
        # Snapped points on a coarse grid tie often; the buffered second wave
        # repeats positions the tree already holds, and so does the tree.
        base = np.round(rng.uniform(-4, 4, (600, 3)))
        gmap = GlobalMap()
        insert_point_cloud(gmap, np.vstack([base, base[:40]]))
        gmap._point_index.rebuild()
        insert_point_cloud(gmap, np.vstack([base[:30], np.round(rng.uniform(-4, 4, (20, 3)))]))
        assert len(gmap._point_index._pending_rows) == 50
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

    def test_neighbor_rows_gather_each_frames_memberships(self, rng):
        gmap = GlobalMap()
        ids = np.arange(1, 501)
        for fid in range(1, 21):
            listed = rng.choice(ids, int(rng.integers(0, 60)), replace=False)
            frame, pos = frame_with_points(fid, Pose(0, 0, 0), listed, listed[:, None] * [1.0, 0, 0])
            insert_frame(gmap, frame, pos)
        for _ in range(20):
            frame_rows = rng.choice(20, int(rng.integers(0, 21)), replace=False)
            want = np.unique(
                np.concatenate([gmap.frame_point_rows(r) for r in frame_rows] + [np.empty(0, int)])
            )
            np.testing.assert_array_equal(_union_rows(gmap, frame_rows), want)


class TestAudit:
    def test_clean_after_random_inserts(self, rng):
        gmap = GlobalMap()
        insert_point_cloud(gmap, rng.uniform(-40, 40, (1000, 3)))
        assert audit(gmap) == []

    def test_detects_missing_point(self, rng):
        gmap = GlobalMap()
        insert_point_cloud(gmap, rng.uniform(-40, 40, (50, 3)))
        pid = int(gmap.points[0])
        del gmap._id_to_row[pid]
        assert audit(gmap) != []

    def test_detects_corrupted_observation_count(self, rng):
        gmap = GlobalMap()
        insert_point_cloud(gmap, rng.uniform(-40, 40, (50, 3)))
        gmap._pt_obs[0] += 5
        assert any("observation_count" in v for v in audit(gmap))

    def test_detects_id_index_pointing_at_another_row(self, rng):
        gmap = GlobalMap()
        insert_point_cloud(gmap, rng.uniform(-40, 40, (50, 3)))
        gmap._id_to_row[int(gmap.points[0])] = 1
        assert any("id index" in v for v in audit(gmap))

    def test_detects_index_divergence(self, rng):
        gmap = GlobalMap()
        insert_point_cloud(gmap, rng.uniform(-40, 40, (50, 3)))
        gmap._point_index.add(np.array([9999]), np.zeros((1, 3)))
        assert any("point index" in v for v in audit(gmap))


class TestSnapshot:
    def build_map(self, rng):
        gmap = GlobalMap(np_max=64)
        for fid in range(1, 6):
            ids = np.arange(fid * 10, fid * 10 + 20)
            f, p = frame_with_points(
                fid, Pose(*rng.uniform(-5, 5, 3), yaw=0.1 * fid), ids,
                rng.uniform(-20, 20, (20, 3)), np_max=64, client=fid % 2,
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
        # Values computed by the per-point map store this one replaced.
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
        assert (len(gmap.frames), len(gmap.points), len(raw)) == (20, 437, 70686)
        assert hashlib.sha256(raw).hexdigest() == (
            "afb6cd1ee3ddd8944710b2ea4f2232361d361c097a001cd55a6d01833acea4e2"
        )
        assert state_digest(gmap) == "96a5fd8b738bf3147a299cae04c4173128f54f5f"
        loaded = load_snapshot(path)
        assert state_digest(loaded) == state_digest(gmap)
        save_snapshot(loaded, tmp_path / "again.mpps")
        assert (tmp_path / "again.mpps").read_bytes() == raw

    @pytest.mark.parametrize("field", ["observation_count", "owner"])
    def test_recorded_ownership_must_match_frames(self, tmp_path, rng, field):
        # The first record is point 10, listed by frame 1 only: observation
        # count 1 at offset 16 + 64, one owner (frame 1) at 16 + 70.
        path = tmp_path / "map.mpps"
        save_snapshot(self.build_map(rng), path)
        data = bytearray(path.read_bytes())
        assert struct.unpack_from("<q56xIHq", data, 16) == (10, 1, 1, 1)
        if field == "observation_count":
            struct.pack_into("<I", data, 16 + 64, 2)
        else:
            struct.pack_into("<q", data, 16 + 70, 2)
        bad = tmp_path / "owners.mpps"
        bad.write_bytes(bytes(data))
        with pytest.raises(SnapshotError):
            load_snapshot(bad)

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
        raw[4] = 77  # version
        bad.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError):
            load_snapshot(bad)

    def test_truncation_detected(self, tmp_path, rng):
        path = tmp_path / "map.mpps"
        save_snapshot(self.build_map(rng), path)
        data = path.read_bytes()
        bad = tmp_path / "trunc.mpps"
        bad.write_bytes(data[: len(data) // 2])
        with pytest.raises(SnapshotError):
            load_snapshot(bad)

    def test_owner_list_past_end_of_file_detected(self, tmp_path):
        # No frames follow a point record whose three owners are cut off.
        raw = (
            b"MPPS" + struct.pack("<HHII", 1, 300, 0, 1) + struct.pack("<q3d", 1, 0, 0, 0)
            + bytes(32) + struct.pack("<IHq", 3, 3, 1)
        )
        bad = tmp_path / "owners.mpps"
        bad.write_bytes(raw)
        with pytest.raises(SnapshotError):
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
