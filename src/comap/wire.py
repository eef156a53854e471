"""Binary wire formats for all client-server exchanges, plus traffic metering.

Frames are little-endian: magic 0x4D51 (u16), version (u8), type (u8), then
either a fixed-size body (overlap query and shared-map request, whose whole
frame is exactly 64 bytes) or a payload length (u32) followed by the payload.
Byte-level layouts are documented in docs/formats.md.

``CODECS`` declares each message type once; every payload is read through
one ``_Payload`` cursor, which refuses a payload it does not consume exactly.
Points travel as one packed table (``POINT_DTYPE``), a shared map's frames as
another (``FRAME_DTYPE``) plus the id column their id runs make; ``pack_runs``
and ``read_runs`` write and read such runs, for the wire and for map snapshots.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from .geometry import CameraIntrinsics, Pose

MAGIC = 0x4D51
VERSION = 1

T_OVERLAP_QUERY = 1
T_OVERLAP_RESPONSE = 2
T_KEYFRAME_UPLOAD = 3
T_SHARED_MAP_REQUEST = 4
T_SHARED_MAP_RESPONSE = 5
T_SESSION_REGISTER = 6
T_SESSION_END = 7
T_UPDATE_CHECK = 8
T_UPDATE_STATUS = 9
T_UPLOAD_ACK = 10
T_REGISTER_ACK = 11
T_END_ACK = 12
T_ERROR = 13

# Overlap query and shared-map request are fixed-function 64-byte frames:
# magic+version+type (4) + client u32 + keyframe u32 + np u16 + pose 6*f64 + pad 2.
FIXED_TYPES = {T_OVERLAP_QUERY, T_SHARED_MAP_REQUEST}
QUERY_FRAME_SIZE = 64
_VAR_HEADER = struct.Struct("<HBBI")
_FIXED_PREFIX = struct.Struct("<HBB")


E_MALFORMED = 1
E_PROTOCOL = 2
E_UNKNOWN_TYPE = 3
E_INTERNAL = 4


class DecodeError(ValueError):
    """Undecodable frame; ``offset`` points at the first unusable byte and
    ``code`` is the error code that answers it."""

    def __init__(self, message: str, offset: int, code: int = E_MALFORMED):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset
        self.code = code


# The 54-byte point record of docs/formats.md, as one packed table row.
POINT_DTYPE = np.dtype(
    [
        ("id", "<i8"),
        ("position", "<f4", (3,)),
        ("descriptor", "u1", (32,)),
        ("observation_count", "<u2"),
    ]
)
assert POINT_DTYPE.itemsize == 54


def point_table(n: int = 0) -> np.ndarray:
    """``n`` zeroed point records."""
    return np.zeros(n, dtype=POINT_DTYPE)


# The 76-byte shared-map frame header of docs/formats.md, as one packed
# table row; ``id_count`` ids (i64) follow each header on the wire.
FRAME_DTYPE = np.dtype([("frame_id", "<i8"), ("client_id", "<u4"), ("keyframe_id", "<u4"),
                        ("pose", "<f8", (6,)), ("fov", "<f8"), ("id_count", "<u4")])
assert FRAME_DTYPE.itemsize == 76


def _run_mask(head_size: int, counts) -> np.ndarray:
    """True on the header bytes of a section of ``head_size``-byte headers,
    each followed by its run of ``counts`` i64 ids."""
    runs = np.empty(2 * len(counts), dtype=np.int64)
    runs[0::2] = head_size
    runs[1::2] = 8 * np.asarray(counts, dtype=np.int64)
    return np.repeat(np.arange(len(runs)) % 2 == 0, runs)


def pack_runs(heads: np.ndarray, ids) -> bytes:
    """The packed records ``heads``, each followed by its ``id_count`` ids
    from ``ids``: a shared map's frame section, and a snapshot's."""
    mask = _run_mask(heads.dtype.itemsize, heads["id_count"])
    out = np.empty(len(mask), dtype=np.uint8)
    out[mask] = np.ascontiguousarray(heads).view(np.uint8)
    out[~mask] = np.asarray(ids, dtype="<i8").view(np.uint8)
    return out.tobytes()


def read_runs(r: _Payload, dtype: np.dtype, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``n`` packed ``dtype`` records that ``pack_runs`` wrote at the
    cursor, each followed by its ``id_count`` ids, and the id column those
    runs make: a shared map's frame section, and a snapshot's.

    Walks the id counts only, then gathers headers and ids through one
    mask. The headers' poses pass ``_check_poses``, and a bad pose in a
    whole header is refused before a later cut.
    """
    count_type, count_at = dtype.fields["id_count"]
    count = struct.Struct("<" + count_type.char)
    start, starts, counts, short = r.pos, [], [], None
    try:
        for _ in range(n):
            starts.append(r.take(dtype.itemsize))
            counts.append(0)  # until the record's run is all there
            (n_ids,) = count.unpack_from(r.data, starts[-1] + count_at)
            r.take(8 * n_ids)
            counts[-1] = n_ids
    except DecodeError as e:
        short = e
    mask = _run_mask(dtype.itemsize, counts)
    section = np.frombuffer(r.data, np.uint8, len(mask), start)
    heads = section[mask].view(dtype)
    _check_poses(heads["pose"], lambda row: starts[row] + dtype.fields["pose"][1])
    if short is not None:
        raise short
    return heads, section[~mask].view("<i8")


class _ArrayFields:
    """Field-wise equality for messages that carry numpy arrays: an array
    field compares by shape and values, every other field with ``==``."""

    def __eq__(self, other):
        return type(other) is type(self) and all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        )


@dataclass
class OverlapQueryMsg:
    """64-byte overlap query: ids, a sample-count hint, and the query pose."""

    client_id: int
    keyframe_id: int
    np_hint: int
    pose: Pose


@dataclass
class SharedMapRequestMsg(OverlapQueryMsg):
    """Same body as the overlap query under a distinct type tag."""


@dataclass(eq=False)
class OverlapResponseMsg(_ArrayFields):
    """Status bit (0: samples are REDUNDANT, 1: FRESH), spacing r, sample list."""

    status: int
    r: float
    samples: np.ndarray

    def __post_init__(self):
        self.r = float(np.float32(self.r))
        self.samples = np.asarray(self.samples, dtype=np.float32).reshape(-1, 3)


@dataclass(eq=False)
class KeyframeUploadMsg(_ArrayFields):
    client_id: int
    keyframe_id: int
    pose: Pose
    fov: float
    points: np.ndarray = field(default_factory=point_table)  # POINT_DTYPE rows


@dataclass(eq=False)
class SharedMapResponseMsg(_ArrayFields):
    """Frames intersecting the shared cone (``FRAME_DTYPE`` rows, each
    followed in ``frame_point_ids`` by its ``id_count`` ids) plus a
    deduplicated point table."""

    frames: np.ndarray = field(default_factory=lambda: np.zeros(0, FRAME_DTYPE))
    frame_point_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    points: np.ndarray = field(default_factory=point_table)  # POINT_DTYPE rows

    @property
    def empty(self) -> bool:
        return not len(self.frames) and not len(self.points)


@dataclass(frozen=True)
class SessionRegisterMsg:
    client_id: int
    intrinsics: CameraIntrinsics


@dataclass(frozen=True)
class SessionEndMsg:
    client_id: int


@dataclass
class UpdateCheckMsg:
    """The device's recent keyframes, sent after repeated localization failures."""

    client_id: int
    keyframes: list[KeyframeUploadMsg] = field(default_factory=list)


VERDICT_EXPANSION = 0
VERDICT_UPDATING = 1


@dataclass(eq=False)
class UpdateStatusMsg(_ArrayFields):
    verdict: int
    stale_ids: np.ndarray
    examined: int = 0
    high_confidence: int = 0
    stale_candidates: int = 0
    cluster_count: int = 0

    def __post_init__(self):
        self.stale_ids = np.asarray(self.stale_ids, dtype=np.int64).reshape(-1)


@dataclass(frozen=True)
class UploadAckMsg:
    frame_id: int


@dataclass(frozen=True)
class RegisterAckMsg:
    client_id: int


@dataclass(frozen=True)
class EndAckMsg:
    frame_count: int
    point_count: int
    elapsed_seconds: float
    map_changed: bool = False


@dataclass(frozen=True)
class ErrorMsg:
    code: int
    message: str


# -- payload reader ----------------------------------------------------------


class _Payload:
    """A cursor over the payload ``data[pos:end]`` of one frame. ``pos`` is
    the frame offset of the next unread byte, so every DecodeError raised
    while reading reports a frame offset."""

    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes, pos: int, end: int):
        self.data, self.pos, self.end = data, pos, end

    def take(self, n: int) -> int:
        """Consume ``n`` bytes and return the frame offset of the first."""
        start = self.pos
        if n > self.end - start:
            raise DecodeError(f"need {n} bytes, {self.end - start} remain", start)
        self.pos = start + n
        return start

    def read(self, s: struct.Struct) -> tuple:
        return s.unpack_from(self.data, self.take(s.size))

    def rest(self, dtype, n: int) -> np.ndarray:
        """The ``n`` records of ``dtype`` that must end the payload."""
        size = n * np.dtype(dtype).itemsize
        if size != self.end - self.pos:
            raise DecodeError(
                f"{n} records need {size} bytes, {self.end - self.pos} remain", self.pos
            )
        return np.frombuffer(self.data, dtype, n, self.take(size)).copy()

    def sub(self, n: int) -> "_Payload":
        """The next ``n`` bytes as a payload of their own."""
        start = self.take(n)
        return _Payload(self.data, start, start + n)

    def done(self):
        if self.pos != self.end:
            raise DecodeError("trailing bytes after the payload", self.pos)


# Per pose field, the open lower and closed upper bound of its values: a
# position must be finite, an angle in (-pi, pi].
_POSE_BOUNDS = [(-math.inf, np.finfo(np.float64).max.item())] * 3 + [(-math.pi, math.pi)] * 3
_POSE_LO, _POSE_HI = np.array(_POSE_BOUNDS).T
_BAD_POSE = "pose field not finite, or angle outside (-pi, pi]"


def _refuse_first(ok: np.ndarray, values: np.ndarray, offset, size: int, what: str):
    """Refuse the first False of ``ok``: field (r, c) of the (n, k)
    ``values`` is ``size`` bytes wide, at frame offset ``offset(r) + size * c``."""
    if np.count_nonzero(ok) < ok.size:
        row, col = divmod(int(np.argmin(ok)), ok.shape[1])
        raise DecodeError(f"{what}: {float(values[row, col])!r}", offset(row) + size * col)


def _check_poses(poses, offset):
    """Refuse a non-finite position or an angle outside (-pi, pi] in the
    (n, 6) ``poses``: ``Pose`` wraps angles to that range, so it stores an
    angle that passes as it is (``Pose.stored``), and no other re-encodes."""
    poses = np.asarray(poses, dtype=np.float64).reshape(-1, 6)
    ok = (_POSE_LO < poses) & (poses <= _POSE_HI)
    _refuse_first(ok, poses, offset, 8, _BAD_POSE)


def _check_pose(pose, at: int):
    """``_check_poses`` for the one pose at frame offset ``at``, in scalar
    arithmetic: a message carrying one pose skips numpy's per-call cost."""
    for col, (v, (lo, hi)) in enumerate(zip(pose, _POSE_BOUNDS)):
        if not lo < v <= hi:
            raise DecodeError(f"{_BAD_POSE}: {float(v)!r}", at + 8 * col)


def _points(r: _Payload, n: int) -> np.ndarray:
    """The ``n`` point records that end the payload, positions finite."""
    at = r.pos + POINT_DTYPE.fields["position"][1]
    points = r.rest(POINT_DTYPE, n)
    xyz = points["position"]
    _refuse_first(np.isfinite(xyz), xyz, lambda row: at + POINT_DTYPE.itemsize * row, 4,
                  "point position not finite")
    return points


def _bit(value: int, off: int, name: str) -> int:
    if value > 1:
        raise DecodeError(f"{name} byte {value} is neither 0 nor 1", off)
    return value


def _pose_fields(p: Pose) -> tuple:
    return p.x, p.y, p.z, p.roll, p.pitch, p.yaw


# -- payload codecs ------------------------------------------------------------

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
# client, keyframe, np hint, pose, zero padding: the 60-byte fixed body.
_QUERY_BODY = struct.Struct("<IIH6dH")
assert 4 + _QUERY_BODY.size == QUERY_FRAME_SIZE
_RESPONSE_HEAD = struct.Struct("<BfI")
# client, keyframe, pose, fov, point count.
_KEYFRAME_HEAD = struct.Struct("<II6ddI")
_COUNTS = struct.Struct("<II")
_REGISTER = struct.Struct("<I4d")
_CHECK_HEAD = struct.Struct("<IH")
_STATUS_HEAD = struct.Struct("<BIIIII")
_END_ACK = struct.Struct("<IIdB")
_ERROR_HEAD = struct.Struct("<HH")


def _write_query(m: OverlapQueryMsg) -> bytes:
    return _QUERY_BODY.pack(m.client_id, m.keyframe_id, m.np_hint, *_pose_fields(m.pose), 0)


def _read_query(cls, r: _Payload) -> OverlapQueryMsg:
    at = r.pos
    client_id, keyframe_id, np_hint, *pose, pad = r.read(_QUERY_BODY)
    _check_pose(pose, at + 10)
    if pad:
        raise DecodeError("nonzero padding", at + 58)
    return cls(client_id, keyframe_id, np_hint, Pose.stored(*pose))


def _write_response(m: OverlapResponseMsg) -> bytes:
    head = _RESPONSE_HEAD.pack(m.status, m.r, len(m.samples))
    return head + m.samples.astype("<f4").tobytes()


def _read_response(r: _Payload) -> OverlapResponseMsg:
    """An f32 NaN need not survive the f64 that ``OverlapResponseMsg.r``
    holds bit for bit, so a NaN spacing is refused."""
    at = r.pos
    status, spacing, n = r.read(_RESPONSE_HEAD)
    _bit(status, at, "overlap status")
    if math.isnan(spacing):
        raise DecodeError("sampling spacing is NaN", at + 1)
    return OverlapResponseMsg(status, spacing, r.rest("<f4", 3 * n).reshape(n, 3))


def _write_keyframe(m: KeyframeUploadMsg) -> bytes:
    head = _KEYFRAME_HEAD.pack(
        m.client_id, m.keyframe_id, *_pose_fields(m.pose), m.fov, len(m.points)
    )
    return head + m.points.tobytes()


def _read_keyframe(r: _Payload) -> KeyframeUploadMsg:
    """One keyframe-upload payload; its point count must account for every
    byte, and its fov must lie in (0, pi)."""
    at = r.pos
    head = r.read(_KEYFRAME_HEAD)
    _check_pose(head[2:8], at + 8)
    return _keyframe(head, at, r)


def _keyframe(head: tuple, at: int, r: _Payload) -> KeyframeUploadMsg:
    """The keyframe upload whose head, its pose already checked, was read at
    frame offset ``at`` of ``r``: its fov must lie in (0, pi), and its point
    count must account for every remaining byte."""
    client_id, keyframe_id, *pose, fov, n = head
    if not 0.0 < fov < math.pi:
        raise DecodeError(f"keyframe fov {fov!r} outside (0, pi)", at + 56)
    return KeyframeUploadMsg(client_id, keyframe_id, Pose.stored(*pose), fov, _points(r, n))


def _write_shared_map(m: SharedMapResponseMsg) -> bytes:
    head = _COUNTS.pack(len(m.frames), len(m.points))
    return head + pack_runs(m.frames, m.frame_point_ids) + m.points.tobytes()


def _read_shared_map(r: _Payload) -> SharedMapResponseMsg:
    n_frames, n_points = r.read(_COUNTS)
    frames, ids = read_runs(r, FRAME_DTYPE, n_frames)
    return SharedMapResponseMsg(frames, ids, _points(r, n_points))


def _write_register(m: SessionRegisterMsg) -> bytes:
    i = m.intrinsics
    return _REGISTER.pack(m.client_id, i.fx, i.fy, i.cx, i.cy)


def _read_register(r: _Payload) -> SessionRegisterMsg:
    at = r.pos
    client_id, *intrinsics = r.read(_REGISTER)
    try:
        intrinsics = CameraIntrinsics(*intrinsics)
    except ValueError as e:
        raise DecodeError(str(e), at + 4) from e
    return SessionRegisterMsg(client_id, intrinsics)


def _write_update_check(m: UpdateCheckMsg) -> bytes:
    parts = [_CHECK_HEAD.pack(m.client_id, len(m.keyframes))]
    for kf in m.keyframes:
        payload = _write_keyframe(kf)
        parts += [_U32.pack(len(payload)), payload]
    return b"".join(parts)


def _read_update_check(r: _Payload) -> UpdateCheckMsg:
    """The check's keyframe payloads, each read as ``_read_keyframe`` reads
    one. Their heads are read first and their poses checked in one call: as
    in ``read_runs``, a bad pose in a whole payload is refused before a
    later cut, and before any keyframe's fov or points."""
    client_id, n = r.read(_CHECK_HEAD)
    starts, heads, bodies, short = [], [], [], None
    try:
        for _ in range(n):
            (length,) = r.read(_U32)
            body = r.sub(length)
            starts.append(body.pos)
            heads.append(body.read(_KEYFRAME_HEAD))
            bodies.append(body)
    except DecodeError as e:
        short = e
    _check_poses([head[2:8] for head in heads], lambda row: starts[row] + 8)
    if short is not None:
        raise short
    return UpdateCheckMsg(client_id, list(map(_keyframe, heads, starts, bodies)))


def _write_update_status(m: UpdateStatusMsg) -> bytes:
    head = _STATUS_HEAD.pack(
        m.verdict, m.examined, m.high_confidence, m.stale_candidates, m.cluster_count,
        len(m.stale_ids),
    )
    return head + m.stale_ids.astype("<i8").tobytes()


def _read_update_status(r: _Payload) -> UpdateStatusMsg:
    at = r.pos
    verdict, examined, high, candidates, clusters, n = r.read(_STATUS_HEAD)
    _bit(verdict, at, "update verdict")
    return UpdateStatusMsg(verdict, r.rest("<i8", n), examined, high, candidates, clusters)


def _write_end_ack(m: EndAckMsg) -> bytes:
    return _END_ACK.pack(m.frame_count, m.point_count, m.elapsed_seconds, int(m.map_changed))


def _read_end_ack(r: _Payload) -> EndAckMsg:
    at = r.pos
    frames, points, elapsed, changed = r.read(_END_ACK)
    return EndAckMsg(frames, points, elapsed, bool(_bit(changed, at + 16, "map changed")))


def _write_error(m: ErrorMsg) -> bytes:
    raw = m.message.encode("utf-8")
    return _ERROR_HEAD.pack(m.code, len(raw)) + raw


def _read_error(r: _Payload) -> ErrorMsg:
    at = r.pos
    code, n = r.read(_ERROR_HEAD)
    if n != r.end - r.pos:
        raise DecodeError(
            f"message length {n} does not match the {r.end - r.pos} bytes that follow", at + 2
        )
    start = r.take(n)
    try:
        return ErrorMsg(code, str(r.data[start : start + n], "utf-8"))
    except UnicodeDecodeError as e:
        raise DecodeError(f"message is not UTF-8: {e.reason}", start + e.start) from e


class Codec(NamedTuple):
    """One message type: its tag, class, traffic category, and the writer
    and reader of its payload (of its 60-byte body, for a fixed type)."""

    tag: int
    cls: type
    category: str
    write: Callable[..., bytes]
    read: Callable[[_Payload], object]


CODECS = (
    Codec(T_OVERLAP_QUERY, OverlapQueryMsg, "query",
          _write_query, functools.partial(_read_query, OverlapQueryMsg)),
    Codec(T_OVERLAP_RESPONSE, OverlapResponseMsg, "response", _write_response, _read_response),
    Codec(T_KEYFRAME_UPLOAD, KeyframeUploadMsg, "keyframe_upload",
          _write_keyframe, _read_keyframe),
    Codec(T_SHARED_MAP_REQUEST, SharedMapRequestMsg, "shared_map",
          _write_query, functools.partial(_read_query, SharedMapRequestMsg)),
    Codec(T_SHARED_MAP_RESPONSE, SharedMapResponseMsg, "shared_map",
          _write_shared_map, _read_shared_map),
    Codec(T_SESSION_REGISTER, SessionRegisterMsg, "session", _write_register, _read_register),
    Codec(T_SESSION_END, SessionEndMsg, "session",
          lambda m: _U32.pack(m.client_id), lambda r: SessionEndMsg(*r.read(_U32))),
    Codec(T_UPDATE_CHECK, UpdateCheckMsg, "update_check",
          _write_update_check, _read_update_check),
    Codec(T_UPDATE_STATUS, UpdateStatusMsg, "update_check",
          _write_update_status, _read_update_status),
    Codec(T_UPLOAD_ACK, UploadAckMsg, "ack",
          lambda m: _I64.pack(m.frame_id), lambda r: UploadAckMsg(*r.read(_I64))),
    Codec(T_REGISTER_ACK, RegisterAckMsg, "ack",
          lambda m: _U32.pack(m.client_id), lambda r: RegisterAckMsg(*r.read(_U32))),
    Codec(T_END_ACK, EndAckMsg, "ack", _write_end_ack, _read_end_ack),
    Codec(T_ERROR, ErrorMsg, "error", _write_error, _read_error),
)
_BY_TAG = {c.tag: c for c in CODECS}
_BY_CLASS = {c.cls: c for c in CODECS}


def encode(msg) -> bytes:
    """Encode one message as a framed byte string."""
    codec = _BY_CLASS.get(type(msg))
    if codec is None:
        raise TypeError(f"cannot encode {type(msg).__name__}")
    payload = codec.write(msg)
    if codec.tag in FIXED_TYPES:
        return _FIXED_PREFIX.pack(MAGIC, VERSION, codec.tag) + payload
    return _VAR_HEADER.pack(MAGIC, VERSION, codec.tag, len(payload)) + payload


def max_request_bytes(np_max: int, update_window: int) -> int:
    """Largest frame a device sends: an update check of ``update_window``
    keyframes of ``np_max`` points each, or one such keyframe upload."""
    keyframe = _KEYFRAME_HEAD.size + POINT_DTYPE.itemsize * np_max
    return 8 + max(keyframe, _CHECK_HEAD.size + update_window * (_U32.size + keyframe))


def frame_length(prefix: bytes) -> int:
    """Total frame size implied by the first 8 bytes (4 suffice for fixed types)."""
    if len(prefix) < 4:
        raise DecodeError("frame shorter than the 4-byte prefix", len(prefix))
    magic, version, mtype = _FIXED_PREFIX.unpack_from(prefix, 0)
    if magic != MAGIC:
        raise DecodeError(f"bad magic 0x{magic:04X}", 0)
    if version != VERSION:
        raise DecodeError(f"unsupported version {version}", 2)
    if mtype in FIXED_TYPES:
        return QUERY_FRAME_SIZE
    if len(prefix) < 8:
        raise DecodeError("variable frame shorter than its 8-byte header", len(prefix))
    (length,) = _U32.unpack_from(prefix, 4)
    return 8 + length


def decode(data: bytes):
    """Decode exactly one frame; raises DecodeError with the failing offset."""
    total = frame_length(data[:8])
    if len(data) < total:
        raise DecodeError(f"truncated frame: need {total} bytes, have {len(data)}", len(data))
    if len(data) > total:
        raise DecodeError("trailing bytes after frame", total)
    codec = _BY_TAG.get(data[3])
    if codec is None:
        raise DecodeError(f"unknown message type {data[3]}", 3, code=E_UNKNOWN_TYPE)
    payload = _Payload(data, 4 if codec.tag in FIXED_TYPES else 8, total)
    msg = codec.read(payload)
    payload.done()
    return msg


# -- traffic metering -------------------------------------------------------


@dataclass
class TrafficStats:
    """Per-session byte accounting by direction and message category."""

    upload_bytes: dict[str, int] = field(default_factory=dict)
    download_bytes: dict[str, int] = field(default_factory=dict)

    @property
    def total_upload(self) -> int:
        return sum(self.upload_bytes.values())

    @property
    def total_download(self) -> int:
        return sum(self.download_bytes.values())


def meter(stats: TrafficStats, msg, direction: str, size: int | None = None) -> TrafficStats:
    """Accumulate one message's encoded size under its category."""
    if direction not in ("upload", "download"):
        raise ValueError(f"direction must be upload or download, got {direction}")
    category = _BY_CLASS[type(msg)].category
    nbytes = len(encode(msg)) if size is None else size
    buckets = stats.upload_bytes if direction == "upload" else stats.download_bytes
    buckets[category] = buckets.get(category, 0) + nbytes
    return stats
