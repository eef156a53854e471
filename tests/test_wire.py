import contextlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comap import wire
from comap.geometry import CameraIntrinsics, Pose
from comap.params import FULL_KEYFRAME_BYTES
from comap.wire import (
    CODECS,
    DecodeError,
    EndAckMsg,
    ErrorMsg,
    KeyframeUploadMsg,
    OverlapQueryMsg,
    OverlapResponseMsg,
    RegisterAckMsg,
    SessionEndMsg,
    SessionRegisterMsg,
    SharedMapRequestMsg,
    SharedMapResponseMsg,
    TrafficStats,
    UpdateCheckMsg,
    UpdateStatusMsg,
    UploadAckMsg,
    decode,
    encode,
    frame_length,
    meter,
    E_MALFORMED,
    E_UNKNOWN_TYPE,
    FIXED_TYPES,
    FRAME_DTYPE,
    POINT_DTYPE,
    T_ERROR,
    T_KEYFRAME_UPLOAD,
    T_OVERLAP_RESPONSE,
    T_SHARED_MAP_RESPONSE,
    T_UPDATE_CHECK,
    T_UPDATE_STATUS,
)

from conftest import point_records


def rand_pose(rng):
    return Pose(*rng.uniform(-100, 100, 3), *rng.uniform(-math.pi, math.pi, 3))


def rand_points(rng, n):
    return point_records(
        rng.integers(0, 1 << 50, n),
        rng.uniform(-50, 50, (n, 3)).astype(np.float32),
        rng.integers(0, 256, (n, 32)),
        rng.integers(0, 1 << 16, n),
    )


def edge_ints(rng, n, lo, hi):
    """``n`` ints in [lo, hi]; about a quarter each are lo and hi."""
    vals = rng.integers(lo, hi, n, dtype=np.int64, endpoint=True)
    edge = rng.integers(0, 4, n)
    vals[edge == 0], vals[edge == 1] = lo, hi
    return vals


def rand_frames(rng):
    """A shared-map frame table and its id column: empty id runs, and
    frame, client and keyframe ids at the limits of their fields, are
    common."""
    n = int(rng.integers(0, 5))
    frames = np.zeros(n, FRAME_DTYPE)
    frames["frame_id"] = edge_ints(rng, n, -(1 << 63), (1 << 63) - 1)
    frames["client_id"] = edge_ints(rng, n, 0, (1 << 32) - 1)
    frames["keyframe_id"] = edge_ints(rng, n, 0, (1 << 32) - 1)
    frames["pose"] = np.array([rand_pose(rng).as_array() for _ in range(n)]).reshape(n, 6)
    frames["fov"] = rng.uniform(0.3, 3.0, n)
    frames["id_count"] = rng.integers(0, 15, n) * (rng.random(n) < 0.7)
    return frames, rng.integers(0, 1 << 40, size=int(frames["id_count"].sum()))


def rand_message(rng, kind=None):
    kind = rng.integers(0, 13) if kind is None else kind
    if kind == 0:
        return OverlapQueryMsg(int(rng.integers(0, 1 << 32)), int(rng.integers(0, 1 << 32)),
                               int(rng.integers(0, 1 << 16)), rand_pose(rng))
    if kind == 1:
        return SharedMapRequestMsg(int(rng.integers(0, 1 << 32)), int(rng.integers(0, 1 << 32)),
                                   int(rng.integers(0, 1 << 16)), rand_pose(rng))
    if kind == 2:
        return OverlapResponseMsg(int(rng.integers(0, 2)), float(rng.uniform(0.1, 5)),
                                  rng.uniform(-50, 50, (int(rng.integers(0, 40)), 3)))
    if kind == 3:
        return KeyframeUploadMsg(int(rng.integers(0, 1 << 32)), int(rng.integers(0, 1 << 32)),
                                 rand_pose(rng), float(rng.uniform(0.3, 3.0)),
                                 rand_points(rng, int(rng.integers(0, 20))))
    if kind == 4:
        return SharedMapResponseMsg(*rand_frames(rng), rand_points(rng, int(rng.integers(0, 25))))
    if kind == 5:
        return SessionRegisterMsg(int(rng.integers(0, 1 << 32)),
                                  CameraIntrinsics(*rng.uniform(10, 2000, 4)))
    if kind == 6:
        return SessionEndMsg(int(rng.integers(0, 1 << 32)))
    if kind == 7:
        kfs = [KeyframeUploadMsg(1, i, rand_pose(rng), 1.4, rand_points(rng, int(rng.integers(0, 8))))
               for i in range(int(rng.integers(1, 5)))]
        return UpdateCheckMsg(int(rng.integers(0, 1 << 32)), kfs)
    if kind == 8:
        return UpdateStatusMsg(int(rng.integers(0, 2)),
                               rng.integers(0, 1 << 40, size=int(rng.integers(0, 30))),
                               *(int(rng.integers(0, 1 << 20)) for _ in range(4)))
    if kind == 9:
        return UploadAckMsg(int(rng.integers(-(1 << 62), 1 << 62)))
    if kind == 10:
        return RegisterAckMsg(int(rng.integers(0, 1 << 32)))
    if kind == 11:
        return EndAckMsg(int(rng.integers(0, 1 << 32)), int(rng.integers(0, 1 << 32)),
                         float(rng.uniform(0, 100)), bool(rng.integers(0, 2)))
    return ErrorMsg(int(rng.integers(0, 1 << 16)),
                    "".join(rng.choice(list("p\u00e9\u2713"), int(rng.integers(0, 60)))))


# rand_message kinds of the variable-size frames (all but the two fixed
# 64-byte queries), and of those with a count or length field.
VARIABLE_KINDS = tuple(range(2, 13))
COUNTED_KINDS = (2, 3, 4, 7, 8, 12)


def count_fields(raw) -> list[tuple[int, str]]:
    """Frame offsets and struct formats of every count and length field of
    an encoded frame of one of the ``COUNTED_KINDS``."""
    if raw[3] == T_OVERLAP_RESPONSE:
        return [(13, "<I")]
    if raw[3] == T_UPDATE_STATUS:
        return [(25, "<I")]
    if raw[3] == T_ERROR:
        return [(10, "<H")]
    if raw[3] == T_KEYFRAME_UPLOAD:
        return [(72, "<I")]
    if raw[3] == T_SHARED_MAP_RESPONSE:
        (n_frames,) = struct.unpack_from("<I", raw, 8)
        fields, off = [(8, "<I"), (12, "<I")], 16
        for _ in range(n_frames):
            (n_ids,) = struct.unpack_from("<I", raw, off + 72)
            fields.append((off + 72, "<I"))
            off += 76 + 8 * n_ids
        return fields
    (n,) = struct.unpack_from("<H", raw, 12)
    fields, off = [(12, "<H")], 14
    for _ in range(n):
        (length,) = struct.unpack_from("<I", raw, off)
        fields += [(off, "<I"), (off + 4 + 64, "<I")]
        off += 4 + length
    return fields


# rand_message kinds of the frames that carry poses: the two fixed 64-byte
# queries, keyframe uploads, shared-map responses and update checks.
POSED_KINDS = (0, 1, 3, 4, 7)


def pose_fields(raw) -> list[int]:
    """Frame offsets of the six ``<f64`` fields of every pose in a frame."""
    if raw[3] in FIXED_TYPES:
        starts = [14]
    elif raw[3] == T_KEYFRAME_UPLOAD:
        starts = [16]
    elif raw[3] == T_SHARED_MAP_RESPONSE:
        (n_frames,) = struct.unpack_from("<I", raw, 8)
        starts, off = [], 16
        for _ in range(n_frames):
            (n_ids,) = struct.unpack_from("<I", raw, off + 72)
            starts.append(off + 16)
            off += 76 + 8 * n_ids
    else:
        (n,) = struct.unpack_from("<H", raw, 12)
        starts, off = [], 14
        for _ in range(n):
            (length,) = struct.unpack_from("<I", raw, off)
            starts.append(off + 12)
            off += 4 + length
    return [start + 8 * i for start in starts for i in range(6)]


# Pose field values: anything, plus the edges of the canonical angle range.
POSE_VALUES = st.floats() | st.floats(-7.0, 7.0) | st.sampled_from(
    [math.pi, -math.pi, np.nextafter(math.pi, 4.0), np.nextafter(-math.pi, 0.0), -0.0, 4.0]
)


@st.composite
def mutated_frames(draw, framed=None, kind=None):
    """Any variable-size frame truncated or extended; a frame with a count
    or length field with one such field rewritten; any frame carrying a
    pose (the fixed 64-byte queries too) with one pose field rewritten; or
    any frame with one byte after its header rewritten. With ``framed``
    (drawn when None) a variable frame's header length is then set to the
    payload actually present. ``kind`` (drawn when None) is the
    ``rand_message`` kind mutated; every mutation applies to kind 4."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    how = draw(st.sampled_from(["truncate", "extend", "count", "pose", "byte"]))
    kinds = {"truncate": VARIABLE_KINDS, "extend": VARIABLE_KINDS, "count": COUNTED_KINDS,
             "pose": POSED_KINDS, "byte": range(13)}[how]
    if kind is None:
        kind = draw(st.sampled_from(kinds))
    raw = bytearray(encode(rand_message(rng, kind=kind)))
    if how == "pose":
        fields = pose_fields(raw)
        if fields:
            struct.pack_into("<d", raw, draw(st.sampled_from(fields)), draw(POSE_VALUES))
    elif how == "truncate":
        del raw[draw(st.integers(8, len(raw) - 1)):]
    elif how == "extend":
        raw += draw(st.binary(min_size=1, max_size=120))
    elif how == "byte":
        header = 4 if raw[3] in FIXED_TYPES else 8
        raw[draw(st.integers(header, len(raw) - 1))] = draw(st.integers(0, 255))
    else:
        off, fmt = draw(st.sampled_from(count_fields(raw)))
        (old,) = struct.unpack_from(fmt, raw, off)
        limit = 2 ** (8 * struct.calcsize(fmt)) - 1
        new = draw(st.integers(0, limit) | st.integers(-3, 3).map(lambda d: old + d))
        struct.pack_into(fmt, raw, off, min(max(new, 0), limit))
    if (framed if framed is not None else draw(st.booleans())) and raw[3] not in FIXED_TYPES:
        struct.pack_into("<I", raw, 4, len(raw) - 8)
    return bytes(raw)


def keyframe_upload(n, kf_id=1):
    ids = np.arange(1, n + 1)
    return KeyframeUploadMsg(
        1, kf_id, Pose(1, 2, 3), 1.4, point_records(ids, np.ones((n, 3)) * ids[:, None])
    )


def reframed(payload: bytes, mtype: int) -> bytes:
    return struct.pack("<HBBI", 0x4D51, 1, mtype, len(payload)) + payload


class TestRegistry:
    def test_every_tag_and_message_class_is_registered_once(self):
        tags = [v for k, v in vars(wire).items() if k.startswith("T_")]
        classes = [v for k, v in vars(wire).items() if isinstance(v, type) and k.endswith("Msg")]
        assert len(set(tags)) == len(tags)
        assert sorted(c.tag for c in CODECS) == sorted(tags)
        assert sorted(c.cls.__name__ for c in CODECS) == sorted(cls.__name__ for cls in classes)


class TestQueryFrameContract:
    def test_query_frame_is_exactly_64_bytes(self):
        msg = OverlapQueryMsg(1, 1, 300, Pose(0, 0, 0))
        raw = encode(msg)
        assert len(raw) == 64
        assert raw[0] == 0x51 and raw[1] == 0x4D

    def test_shared_request_also_64_bytes(self, rng):
        for _ in range(50):
            msg = SharedMapRequestMsg(int(rng.integers(1 << 32)), int(rng.integers(1 << 32)),
                                      int(rng.integers(1 << 16)), rand_pose(rng))
            assert len(encode(msg)) == 64

    def test_size_independent_of_field_values(self, rng):
        for _ in range(100):
            msg = OverlapQueryMsg(int(rng.integers(1 << 32)), int(rng.integers(1 << 32)),
                                  int(rng.integers(1 << 16)), rand_pose(rng))
            assert len(encode(msg)) == 64

    def test_golden_vector(self):
        msg = OverlapQueryMsg(1, 1, 300, Pose(0, 0, 0))
        want = (
            struct.pack("<HBB", 0x4D51, 1, 1)
            + struct.pack("<IIH", 1, 1, 300)
            + b"\x00" * 48
            + b"\x00\x00"
        )
        assert encode(msg) == want

    def test_decode_roundtrip_distinguishes_type_tag(self):
        q = OverlapQueryMsg(7, 9, 10, Pose(1, 2, 3))
        s = SharedMapRequestMsg(7, 9, 10, Pose(1, 2, 3))
        assert isinstance(decode(encode(q)), OverlapQueryMsg)
        assert isinstance(decode(encode(s)), SharedMapRequestMsg)
        assert encode(q)[3] != encode(s)[3]


class TestRoundTrip:
    def test_roundtrip_randomized_all_types(self, rng):
        for _ in range(10_000):
            msg = rand_message(rng)
            assert decode(encode(msg)) == msg

    def test_ack_types(self):
        for msg in (UploadAckMsg(12), RegisterAckMsg(5), EndAckMsg(3, 77, 0.125, True)):
            assert decode(encode(msg)) == msg

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.integers(0, 2**16 - 1),
           st.floats(-1000, 1000), st.floats(-1000, 1000), st.floats(-1000, 1000))
    @settings(max_examples=200)
    def test_query_roundtrip_hypothesis(self, c, k, n, x, y, z):
        msg = OverlapQueryMsg(c, k, n, Pose(x, y, z))
        assert decode(encode(msg)) == msg


class TestPointTable:
    def test_dtype_is_the_documented_54_byte_record(self):
        assert POINT_DTYPE.itemsize == 54
        assert [POINT_DTYPE.fields[f][1] for f in POINT_DTYPE.names] == [0, 8, 20, 52]

    def test_record_bytes_match_the_documented_layout(self):
        msg = KeyframeUploadMsg(
            7, 9, Pose(0, 0, 0), 1.4,
            point_records([-5], [[1.5, -2.25, 3.0]], [np.arange(32)], [65535]),
        )
        want = (
            struct.pack("<q3f", -5, 1.5, -2.25, 3.0) + bytes(range(32)) + struct.pack("<H", 65535)
        )
        assert encode(msg)[-54:] == want


class TestDecodeErrors:
    def test_truncated_query_reports_offset(self):
        raw = encode(OverlapQueryMsg(1, 1, 300, Pose(0, 0, 0)))[:63]
        with pytest.raises(DecodeError) as err:
            decode(raw)
        assert err.value.offset == 63

    def test_bad_magic(self):
        raw = bytearray(encode(SessionEndMsg(1)))
        raw[0] = 0xFF
        with pytest.raises(DecodeError) as err:
            decode(bytes(raw))
        assert err.value.offset == 0

    def test_bad_version(self):
        raw = bytearray(encode(SessionEndMsg(1)))
        raw[2] = 9
        with pytest.raises(DecodeError) as err:
            decode(bytes(raw))
        assert err.value.offset == 2

    def test_unknown_type(self):
        raw = struct.pack("<HBBI", 0x4D51, 1, 200, 0)
        with pytest.raises(DecodeError):
            decode(raw)

    def test_unknown_type_carries_unknown_type_code(self):
        raw = struct.pack("<HBBI", 0x4D51, 1, 99, 4) + b"abcd"
        with pytest.raises(DecodeError) as err:
            decode(raw)
        assert err.value.code == E_UNKNOWN_TYPE

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_keyframe_count_must_account_for_payload(self, count):
        payload = bytearray(encode(keyframe_upload(2))[8:])
        struct.pack_into("<I", payload, 64, count)
        with pytest.raises(DecodeError) as err:
            decode(reframed(bytes(payload), T_KEYFRAME_UPLOAD))
        assert err.value.code == E_MALFORMED
        assert err.value.offset == 76  # the first point record

    def test_shared_map_response_trailing_point_rejected(self):
        msg = SharedMapResponseMsg(points=keyframe_upload(2).points)
        raw = encode(msg)
        assert decode(raw) == msg
        with pytest.raises(DecodeError):
            decode(reframed(raw[8:] + raw[-54:], T_SHARED_MAP_RESPONSE))

    def test_update_check_keyframe_must_fill_its_length(self):
        inner = encode(keyframe_upload(2))[8:]
        head = struct.pack("<IH", 1, 1)
        assert decode(reframed(head + struct.pack("<I", len(inner)) + inner, T_UPDATE_CHECK))
        padded = inner + inner[-54:]
        with pytest.raises(DecodeError):
            decode(reframed(head + struct.pack("<I", len(padded)) + padded, T_UPDATE_CHECK))
        with pytest.raises(DecodeError):
            decode(reframed(head + struct.pack("<I", len(inner)) + inner + b"\x00", T_UPDATE_CHECK))
        with pytest.raises(DecodeError):
            decode(reframed(head + struct.pack("<I", len(inner) + 1) + inner, T_UPDATE_CHECK))

    def test_non_canonical_pose_angle_rejected(self):
        # A roll of 4.0 is refused at its frame offset: in an upload, in a
        # shared-map response's frame header and in an update check's keyframe.
        upload = keyframe_upload(2)
        frames = np.array([(3, 1, 1, Pose(1, 2, 3).as_array(), 1.4, 2)], dtype=FRAME_DTYPE)
        for msg, roll_at in (
            (upload, 16 + 24),
            (SharedMapResponseMsg(frames, [1, 2], upload.points), 32 + 24),
            (UpdateCheckMsg(1, [upload]), 26 + 24),
        ):
            raw = bytearray(encode(msg))
            struct.pack_into("<d", raw, roll_at, 4.0)
            with pytest.raises(DecodeError, match="angle") as err:
                decode(bytes(raw))
            assert err.value.code == E_MALFORMED
            assert err.value.offset == roll_at

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 2])
    def test_non_finite_point_position_rejected(self, value, axis):
        # The second point's position is refused at its component's frame
        # offset: in an upload, in a shared-map response's point table and
        # in an update check's keyframe.
        upload = keyframe_upload(3)
        upload.points["position"][1, axis] = value
        at = 54 + 8 + 4 * axis
        for msg, table_at in (
            (upload, 76),
            (SharedMapResponseMsg(points=upload.points), 16),
            (UpdateCheckMsg(1, [upload]), 86),
        ):
            with pytest.raises(DecodeError, match="position") as err:
                decode(encode(msg))
            assert err.value.code == E_MALFORMED
            assert err.value.offset == table_at + at

    @pytest.mark.parametrize("fov", [0.0, -1.4, math.pi, 4.0, math.nan, math.inf, -math.inf])
    def test_keyframe_fov_outside_open_range_rejected(self, fov):
        # The fov follows the keyframe's pose, at payload offset 56, in an
        # upload and in each keyframe of an update check alike; it is
        # refused at its frame offset.
        payload = bytearray(encode(keyframe_upload(2))[8:])
        struct.pack_into("<d", payload, 56, fov)
        check = struct.pack("<IHI", 1, 1, len(payload)) + payload
        for raw, fov_at in (
            (reframed(bytes(payload), T_KEYFRAME_UPLOAD), 64),
            (reframed(check, T_UPDATE_CHECK), 74),
        ):
            with pytest.raises(DecodeError, match="fov") as err:
                decode(raw)
            assert err.value.code == E_MALFORMED
            assert err.value.offset == fov_at

    @given(mutated_frames())
    @settings(max_examples=400, deadline=None)
    def test_mutated_frames_decode_exactly_or_raise(self, raw):
        try:
            msg = decode(raw)
        except DecodeError:
            return
        assert encode(msg) == raw

    def test_trailing_bytes_rejected(self):
        raw = encode(SessionEndMsg(1)) + b"\x00"
        with pytest.raises(DecodeError):
            decode(raw)

    @pytest.mark.parametrize("msg, at", [
        (SessionRegisterMsg(1, CameraIntrinsics(500, 500, 320, 240)), None),
        (SessionEndMsg(1), None),
        (UpdateStatusMsg(1, [4, 5]), 29),  # the stale ids
        (UploadAckMsg(3), None),
        (RegisterAckMsg(1), None),
        (EndAckMsg(1, 2, 0.0), None),
        (ErrorMsg(1, "no"), 10),  # the message length
    ])
    def test_payload_must_be_consumed_exactly(self, msg, at):
        # A byte past the payload's last field, counted in the frame's
        # length, is refused where the payload stops making sense.
        raw = encode(msg)
        with pytest.raises(DecodeError) as err:
            decode(reframed(raw[8:] + b"\x00", raw[3]))
        assert err.value.code == E_MALFORMED
        assert err.value.offset == (len(raw) if at is None else at)

    @pytest.mark.parametrize("value", [2, 255])
    @pytest.mark.parametrize("msg, at", [
        (OverlapResponseMsg(1, 0.5, [[1, 2, 3]]), 8),  # status
        (UpdateStatusMsg(1, [4, 5]), 8),  # verdict
        (EndAckMsg(1, 2, 0.0, True), 24),  # map changed
    ])
    def test_bit_fields_outside_0_and_1_rejected(self, msg, at, value):
        raw = bytearray(encode(msg))
        raw[at] = value
        with pytest.raises(DecodeError) as err:
            decode(bytes(raw))
        assert err.value.code == E_MALFORMED
        assert err.value.offset == at

    @pytest.mark.parametrize("length", [0, 2, 4, 0xFFFF])
    def test_error_message_length_must_match_payload(self, length):
        raw = bytearray(encode(ErrorMsg(2, "abc")))
        struct.pack_into("<H", raw, 10, length)
        with pytest.raises(DecodeError) as err:
            decode(bytes(raw))
        assert err.value.code == E_MALFORMED
        assert err.value.offset == 10

    def test_error_message_must_be_utf8(self):
        raw = bytearray(encode(ErrorMsg(2, "abc")))
        raw[13] = 0xFF
        with pytest.raises(DecodeError) as err:
            decode(bytes(raw))
        assert err.value.offset == 13

    def test_query_padding_must_be_zero(self):
        for msg in (OverlapQueryMsg(1, 2, 3, Pose(0, 0, 0)), SharedMapRequestMsg(1, 2, 3, Pose(0, 0, 0))):
            raw = bytearray(encode(msg))
            raw[63] = 1
            with pytest.raises(DecodeError) as err:
                decode(bytes(raw))
            assert err.value.offset == 62

    @pytest.mark.parametrize("nan", ["0000c07f", "0100807f"])  # quiet, signalling
    def test_nan_sample_spacing_rejected(self, nan):
        # A signalling f32 NaN would come back quiet: not the same bytes.
        raw = bytearray(encode(OverlapResponseMsg(0, 0.5, [[1, 2, 3]])))
        raw[9:13] = bytes.fromhex(nan)
        with pytest.raises(DecodeError) as err:
            decode(bytes(raw))
        assert err.value.offset == 9

    def test_frame_length_helper(self):
        assert frame_length(encode(OverlapQueryMsg(1, 1, 1, Pose(0, 0, 0)))[:4]) == 64
        raw = encode(SessionEndMsg(1))
        assert frame_length(raw[:8]) == len(raw)


# -- the per-record shared-map codec, kept as the reference ------------------

# frame id, client, keyframe, pose, fov, id count.
_FRAME_HEAD = struct.Struct("<qII6ddI")


def canonical_pose(vals, off: int):
    """Refuse six decoded pose fields at frame offset ``off`` field by
    field: a non-finite position, then an angle outside (-pi, pi]."""
    for i, v in enumerate(vals[:3]):
        if not math.isfinite(v):
            raise DecodeError(f"pose field {v!r} is not finite", off + 8 * i)
    for i, angle in enumerate(vals[3:]):
        if not -math.pi < angle <= math.pi:
            raise DecodeError(f"pose angle {angle!r} outside (-pi, pi]", off + 24 + 8 * i)


def reference_write_shared_map(m: SharedMapResponseMsg) -> bytes:
    """Packs each frame header and its id run separately."""
    parts = [struct.pack("<II", len(m.frames), len(m.points))]
    runs = np.split(m.frame_point_ids, np.cumsum(m.frames["id_count"], dtype=np.int64)[:-1])
    for (fid, client, keyframe, pose, fov, n), ids in zip(m.frames.tolist(), runs):
        parts += [_FRAME_HEAD.pack(fid, client, keyframe, *pose, fov, n),
                  ids.astype("<i8").tobytes()]
    return b"".join(parts) + m.points.tobytes()


def reference_read_shared_map(r) -> SharedMapResponseMsg:
    """Reads and checks one frame header and its id run at a time; the
    point table goes through the codec's own point reader."""
    n_frames, n_points = r.read(struct.Struct("<II"))
    heads, runs = [], [np.empty(0, dtype=np.int64)]
    for _ in range(n_frames):
        at = r.pos
        frame_id, client_id, keyframe_id, *pose, fov, n_ids = r.read(_FRAME_HEAD)
        canonical_pose(pose, at + 16)
        heads.append((frame_id, client_id, keyframe_id, pose, fov, n_ids))
        runs.append(np.frombuffer(r.data, "<i8", n_ids, r.take(8 * n_ids)))
    frames = np.array(heads, dtype=FRAME_DTYPE).reshape(-1)
    return SharedMapResponseMsg(frames, np.concatenate(runs), wire._points(r, n_points))


@contextlib.contextmanager
def reference_shared_map_codec():
    """``encode`` and ``decode`` with the per-record shared-map codec."""
    codec = wire._BY_TAG[T_SHARED_MAP_RESPONSE]
    reference = codec._replace(write=reference_write_shared_map, read=reference_read_shared_map)
    wire._BY_TAG[codec.tag] = wire._BY_CLASS[codec.cls] = reference
    try:
        yield
    finally:
        wire._BY_TAG[codec.tag] = wire._BY_CLASS[codec.cls] = codec


def decoded(raw):
    """The message ``raw`` decodes to, or the code and offset refusing it."""
    try:
        return decode(raw)
    except DecodeError as e:
        return e.code, e.offset


def assert_same_outcome(raw):
    """Both shared-map codecs accept ``raw`` or refuse it with the same
    code and offset; what they accept is bit for bit the same, and both
    writers re-encode it to the same bytes."""
    got = decoded(raw)
    with reference_shared_map_codec():
        want = decoded(raw)
        want_raw = encode(got) if isinstance(got, SharedMapResponseMsg) else None
    assert type(got) is type(want)
    if isinstance(want, tuple):
        assert got == want
        return
    for name in ("frames", "frame_point_ids", "points"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert encode(got) == want_raw == raw


class TestSharedMapCodec:
    def test_random_responses_match_the_per_record_codec(self, rng):
        for _ in range(1000):
            assert_same_outcome(encode(rand_message(rng, kind=4)))

    @given(mutated_frames(kind=4))
    @settings(max_examples=400, deadline=None)
    def test_mutated_responses_match_the_per_record_codec(self, raw):
        assert_same_outcome(raw)

    @pytest.mark.parametrize("value", [4.0, math.nan, math.inf])
    def test_bad_pose_is_reported_before_any_later_fault(self, value):
        # Frame 1's yaw is bad, and the payload is then cut short at every
        # byte after that frame's header, or a frame is given a longer id
        # run: the pose is refused first.
        frames = np.zeros(3, FRAME_DTYPE)
        frames["frame_id"] = [5, 6, 7]
        frames["fov"] = 1.4
        frames["id_count"] = [2, 3, 1]
        msg = SharedMapResponseMsg(frames, np.arange(6), keyframe_upload(2).points)
        raw = bytearray(encode(msg))
        frame_at = 16 + 76 + 8 * 2
        yaw_at = frame_at + 16 + 40
        struct.pack_into("<d", raw, yaw_at, value)
        for end in range(frame_at + 76, len(raw)):
            cut = bytearray(raw[:end])
            struct.pack_into("<I", cut, 4, end - 8)
            assert decoded(bytes(cut)) == (E_MALFORMED, yaw_at)
            assert_same_outcome(bytes(cut))
        for at in (frame_at + 72, frame_at + 76 + 8 * 3 + 72):
            longer = bytearray(raw)
            struct.pack_into("<I", longer, at, 1 << 20)
            assert decoded(bytes(longer)) == (E_MALFORMED, yaw_at)
            assert_same_outcome(bytes(longer))

    def test_run_writer_checks_the_id_count(self):
        frames = np.zeros(2, FRAME_DTYPE)
        frames["id_count"] = [1, 2]
        with pytest.raises(ValueError):
            wire.pack_runs(frames, np.arange(4))


def per_keyframe_kb(stats: TrafficStats, category: str | None = None) -> float:
    """Mean uploaded KiB per keyframe, of one category or of all."""
    if stats.keyframes == 0:
        return 0.0
    total = stats.upload_bytes.get(category, 0) if category else stats.total_upload
    return total / stats.keyframes / 1024.0


def ratio_vs_full_keyframe(stats: TrafficStats, category: str) -> float:
    """Mean per-keyframe upload bytes of a category over the 160 KB constant."""
    if stats.keyframes == 0:
        return 0.0
    return stats.upload_bytes.get(category, 0) / stats.keyframes / FULL_KEYFRAME_BYTES


class TestMetering:
    def test_query_ratio_against_full_keyframe(self):
        stats = TrafficStats()
        stats.note_keyframe()
        meter(stats, OverlapQueryMsg(1, 1, 300, Pose(0, 0, 0)), "upload")
        # 64 / 163840 = 0.0390625%
        assert ratio_vs_full_keyframe(stats, "query") == pytest.approx(64 / FULL_KEYFRAME_BYTES)
        assert ratio_vs_full_keyframe(stats, "query") == pytest.approx(0.000390625)

    def test_zero_messages_zero_counters(self):
        stats = TrafficStats()
        assert stats.total_upload == 0
        assert stats.total_download == 0
        assert per_keyframe_kb(stats) == 0.0

    def test_totals_are_exact_sums(self, rng):
        stats = TrafficStats()
        sent = recv = 0
        for _ in range(300):
            msg = rand_message(rng)
            raw = encode(msg)
            if rng.integers(0, 2):
                meter(stats, msg, "upload", size=len(raw))
                sent += len(raw)
            else:
                meter(stats, msg, "download", size=len(raw))
                recv += len(raw)
        assert stats.total_upload == sent
        assert stats.total_download == recv

    def test_vanilla_session_upload_matches_encoded_sizes(self, rng):
        stats = TrafficStats()
        total = 0
        for i in range(40):
            kf = KeyframeUploadMsg(1, i, rand_pose(rng), 1.4, rand_points(rng, 12))
            raw = encode(kf)
            total += len(raw)
            stats.note_keyframe()
            meter(stats, kf, "upload", size=len(raw))
        assert stats.upload_bytes["keyframe_upload"] == total
        assert per_keyframe_kb(stats, "keyframe_upload") == pytest.approx(total / 40 / 1024)

    def test_direction_validated(self):
        with pytest.raises(ValueError):
            meter(TrafficStats(), SessionEndMsg(1), "sideways")

    def test_response_size_formula(self, rng):
        # 8-byte header + status byte + f32 r + u32 count + 12 bytes per sample.
        for n in (0, 1, 17):
            msg = OverlapResponseMsg(0, 1.8, rng.uniform(-5, 5, (n, 3)))
            assert len(encode(msg)) == 8 + 9 + 12 * n
