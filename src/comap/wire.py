"""Binary wire formats for all client-server exchanges, plus traffic metering.

Frames are little-endian: magic 0x4D51 (u16), version (u8), type (u8), then
either a fixed-size body (overlap query and shared-map request, whose whole
frame is exactly 64 bytes) or a payload length (u32) followed by the payload.
Byte-level layouts are documented in docs/formats.md.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

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
_FIXED_BODY = struct.Struct("<IIH6d")
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


def _f32(x: float) -> float:
    return float(np.float32(x))


def _f32_points(pts) -> np.ndarray:
    a = np.asarray(pts, dtype=np.float32)
    return a.reshape(0, 3) if a.size == 0 else a.reshape(-1, 3)


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


@dataclass(eq=False)
class OverlapQueryMsg:
    """64-byte overlap query: ids, a sample-count hint, and the query pose."""

    client_id: int
    keyframe_id: int
    np_hint: int
    pose: Pose

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and (self.client_id, self.keyframe_id, self.np_hint)
            == (other.client_id, other.keyframe_id, other.np_hint)
            and self.pose == other.pose
        )


@dataclass(eq=False)
class SharedMapRequestMsg(OverlapQueryMsg):
    """Same body as the overlap query under a distinct type tag."""


@dataclass(eq=False)
class OverlapResponseMsg:
    """Status bit (0: samples are REDUNDANT, 1: FRESH), spacing r, sample list."""

    status: int
    r: float
    samples: np.ndarray

    def __post_init__(self):
        self.r = _f32(self.r)
        self.samples = _f32_points(self.samples)

    def __eq__(self, other):
        return (
            isinstance(other, OverlapResponseMsg)
            and self.status == other.status
            and self.r == other.r
            and np.array_equal(self.samples, other.samples)
        )


@dataclass(eq=False)
class KeyframeUploadMsg:
    client_id: int
    keyframe_id: int
    pose: Pose
    fov: float
    points: np.ndarray = field(default_factory=point_table)  # POINT_DTYPE rows

    def __eq__(self, other):
        return (
            isinstance(other, KeyframeUploadMsg)
            and (self.client_id, self.keyframe_id, self.fov)
            == (other.client_id, other.keyframe_id, other.fov)
            and self.pose == other.pose
            and self.points.tobytes() == other.points.tobytes()
        )


@dataclass(eq=False)
class FrameRecord:
    frame_id: int
    client_id: int
    keyframe_id: int
    pose: Pose
    fov: float
    point_ids: np.ndarray

    def __post_init__(self):
        self.point_ids = np.asarray(self.point_ids, dtype=np.int64).reshape(-1)

    def __eq__(self, other):
        return (
            isinstance(other, FrameRecord)
            and (self.frame_id, self.client_id, self.keyframe_id, self.fov)
            == (other.frame_id, other.client_id, other.keyframe_id, other.fov)
            and self.pose == other.pose
            and np.array_equal(self.point_ids, other.point_ids)
        )


@dataclass(eq=False)
class SharedMapResponseMsg:
    """Frames intersecting the shared cone plus a deduplicated point table."""

    frames: list[FrameRecord] = field(default_factory=list)
    points: np.ndarray = field(default_factory=point_table)  # POINT_DTYPE rows

    def __eq__(self, other):
        return (
            isinstance(other, SharedMapResponseMsg)
            and self.frames == other.frames
            and self.points.tobytes() == other.points.tobytes()
        )

    @property
    def empty(self) -> bool:
        return not self.frames and not len(self.points)


@dataclass(frozen=True)
class SessionRegisterMsg:
    client_id: int
    intrinsics: CameraIntrinsics


@dataclass(frozen=True)
class SessionEndMsg:
    client_id: int


@dataclass(eq=False)
class UpdateCheckMsg:
    """The device's recent keyframes, sent after repeated localization failures."""

    client_id: int
    keyframes: list[KeyframeUploadMsg] = field(default_factory=list)

    def __eq__(self, other):
        return (
            isinstance(other, UpdateCheckMsg)
            and self.client_id == other.client_id
            and self.keyframes == other.keyframes
        )


VERDICT_EXPANSION = 0
VERDICT_UPDATING = 1


@dataclass(eq=False)
class UpdateStatusMsg:
    verdict: int
    stale_ids: np.ndarray
    examined: int = 0
    high_confidence: int = 0
    stale_candidates: int = 0
    cluster_count: int = 0

    def __post_init__(self):
        self.stale_ids = np.asarray(self.stale_ids, dtype=np.int64).reshape(-1)

    def __eq__(self, other):
        return (
            isinstance(other, UpdateStatusMsg)
            and (self.verdict, self.examined, self.high_confidence,
                 self.stale_candidates, self.cluster_count)
            == (other.verdict, other.examined, other.high_confidence,
                other.stale_candidates, other.cluster_count)
            and np.array_equal(self.stale_ids, other.stale_ids)
        )


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


# -- payload codecs --------------------------------------------------------


def _pack_pose(p: Pose) -> bytes:
    return struct.pack("<6d", p.x, p.y, p.z, p.roll, p.pitch, p.yaw)


def _canonical_pose(vals, off: int) -> Pose:
    """The pose of six decoded fields starting at ``off``. ``Pose`` wraps
    angles to (-pi, pi]; an angle outside that range would not re-encode to
    the bytes it came from, so it is refused."""
    for i, angle in enumerate(vals[3:]):
        if not -math.pi < angle <= math.pi:
            raise DecodeError(f"pose angle {angle!r} outside (-pi, pi]", off + 24 + 8 * i)
    return Pose(*vals)


# Each reader below takes ``base``, the frame offset of ``data``'s first
# byte, so that every DecodeError it raises reports a frame offset.


def _unpack_pose(data: bytes, off: int, base: int) -> tuple[Pose, int]:
    return _canonical_pose(struct.unpack_from("<6d", data, off), base + off), off + 48


def _decode_points(data: bytes, off: int, n: int, base: int) -> np.ndarray:
    """The ``n``-row point table at ``off``, which must end ``data``."""
    if len(data) - off != n * POINT_DTYPE.itemsize:
        raise DecodeError(
            f"{n} point records need {n * POINT_DTYPE.itemsize} bytes, "
            f"{len(data) - off} remain", base + off
        )
    return np.frombuffer(data, dtype=POINT_DTYPE, count=n, offset=off).copy()


def _pack_keyframe_payload(m: KeyframeUploadMsg) -> bytes:
    out = struct.pack("<II", m.client_id, m.keyframe_id)
    out += _pack_pose(m.pose)
    out += struct.pack("<dI", m.fov, len(m.points))
    return out + m.points.tobytes()


def _unpack_keyframe_payload(data: bytes, base: int) -> KeyframeUploadMsg:
    """One keyframe-upload payload; its point count must account for every
    byte, and its fov must lie in (0, pi)."""
    client_id, keyframe_id = struct.unpack_from("<II", data, 0)
    pose, off = _unpack_pose(data, 8, base)
    fov, n = struct.unpack_from("<dI", data, off)
    if not 0.0 < fov < math.pi:
        raise DecodeError(f"keyframe fov {fov!r} outside (0, pi)", base + off)
    points = _decode_points(data, off + 12, n, base)
    return KeyframeUploadMsg(client_id, keyframe_id, pose, fov, points)


def _encode_payload(msg) -> bytes:
    if isinstance(msg, OverlapResponseMsg):
        return (
            struct.pack("<BfI", msg.status, msg.r, len(msg.samples))
            + msg.samples.astype("<f4").tobytes()
        )
    if isinstance(msg, KeyframeUploadMsg):
        return _pack_keyframe_payload(msg)
    if isinstance(msg, SharedMapResponseMsg):
        out = struct.pack("<II", len(msg.frames), len(msg.points))
        for f in msg.frames:
            out += struct.pack("<qII", f.frame_id, f.client_id, f.keyframe_id)
            out += _pack_pose(f.pose)
            out += struct.pack("<dI", f.fov, len(f.point_ids))
            out += f.point_ids.astype("<i8").tobytes()
        return out + msg.points.tobytes()
    if isinstance(msg, SessionRegisterMsg):
        i = msg.intrinsics
        return struct.pack("<I4d", msg.client_id, i.fx, i.fy, i.cx, i.cy)
    if isinstance(msg, SessionEndMsg):
        return struct.pack("<I", msg.client_id)
    if isinstance(msg, UpdateCheckMsg):
        out = struct.pack("<IH", msg.client_id, len(msg.keyframes))
        for kf in msg.keyframes:
            payload = _pack_keyframe_payload(kf)
            out += struct.pack("<I", len(payload)) + payload
        return out
    if isinstance(msg, UpdateStatusMsg):
        return (
            struct.pack(
                "<BIIIII",
                msg.verdict,
                msg.examined,
                msg.high_confidence,
                msg.stale_candidates,
                msg.cluster_count,
                len(msg.stale_ids),
            )
            + msg.stale_ids.astype("<i8").tobytes()
        )
    if isinstance(msg, UploadAckMsg):
        return struct.pack("<q", msg.frame_id)
    if isinstance(msg, RegisterAckMsg):
        return struct.pack("<I", msg.client_id)
    if isinstance(msg, EndAckMsg):
        return struct.pack(
            "<IIdB",
            msg.frame_count,
            msg.point_count,
            msg.elapsed_seconds,
            int(msg.map_changed),
        )
    if isinstance(msg, ErrorMsg):
        raw = msg.message.encode("utf-8")
        return struct.pack("<HH", msg.code, len(raw)) + raw
    raise TypeError(f"cannot encode {type(msg).__name__}")


_TYPE_OF = {
    OverlapQueryMsg: T_OVERLAP_QUERY,
    SharedMapRequestMsg: T_SHARED_MAP_REQUEST,
    OverlapResponseMsg: T_OVERLAP_RESPONSE,
    KeyframeUploadMsg: T_KEYFRAME_UPLOAD,
    SharedMapResponseMsg: T_SHARED_MAP_RESPONSE,
    SessionRegisterMsg: T_SESSION_REGISTER,
    SessionEndMsg: T_SESSION_END,
    UpdateCheckMsg: T_UPDATE_CHECK,
    UpdateStatusMsg: T_UPDATE_STATUS,
    UploadAckMsg: T_UPLOAD_ACK,
    RegisterAckMsg: T_REGISTER_ACK,
    EndAckMsg: T_END_ACK,
    ErrorMsg: T_ERROR,
}


def message_type(msg) -> int:
    return _TYPE_OF[type(msg)]


def encode(msg) -> bytes:
    """Encode one message as a framed byte string."""
    mtype = message_type(msg)
    if mtype in FIXED_TYPES:
        body = _FIXED_BODY.pack(
            msg.client_id, msg.keyframe_id, msg.np_hint,
            msg.pose.x, msg.pose.y, msg.pose.z,
            msg.pose.roll, msg.pose.pitch, msg.pose.yaw,
        )
        frame = _FIXED_PREFIX.pack(MAGIC, VERSION, mtype) + body + b"\x00\x00"
        assert len(frame) == QUERY_FRAME_SIZE
        return frame
    payload = _encode_payload(msg)
    return _VAR_HEADER.pack(MAGIC, VERSION, mtype, len(payload)) + payload


# client u32, keyframe u32, pose 6 x f64, fov f64, point count u32.
_KEYFRAME_HEADER_BYTES = 68


def max_request_bytes(np_max: int, update_window: int) -> int:
    """Largest frame a device sends: an update check of ``update_window``
    keyframes of ``np_max`` points each, or one such keyframe upload."""
    keyframe = _KEYFRAME_HEADER_BYTES + POINT_DTYPE.itemsize * np_max
    return 8 + max(keyframe, 6 + update_window * (4 + keyframe))


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
    (length,) = struct.unpack_from("<I", prefix, 4)
    return 8 + length


def decode(data: bytes):
    """Decode exactly one frame; raises DecodeError with the failing offset."""
    total = frame_length(data[:8])
    if len(data) < total:
        raise DecodeError(f"truncated frame: need {total} bytes, have {len(data)}", len(data))
    if len(data) > total:
        raise DecodeError("trailing bytes after frame", total)
    mtype = data[3]
    try:
        if mtype in FIXED_TYPES:
            client_id, keyframe_id, np_hint, *pose_vals = _FIXED_BODY.unpack_from(data, 4)
            cls = OverlapQueryMsg if mtype == T_OVERLAP_QUERY else SharedMapRequestMsg
            return cls(client_id, keyframe_id, np_hint, _canonical_pose(pose_vals, 14))
        payload = data[8:]
        if mtype == T_OVERLAP_RESPONSE:
            status, r, n = struct.unpack_from("<BfI", payload, 0)
            if len(payload) != 9 + 12 * n:
                raise DecodeError("sample list length mismatch", 8 + len(payload))
            pts = np.frombuffer(payload, dtype="<f4", count=3 * n, offset=9)
            return OverlapResponseMsg(status, r, pts.reshape(n, 3).copy())
        if mtype == T_KEYFRAME_UPLOAD:
            return _unpack_keyframe_payload(payload, 8)
        if mtype == T_SHARED_MAP_RESPONSE:
            n_frames, n_points = struct.unpack_from("<II", payload, 0)
            off = 8
            frames = []
            for _ in range(n_frames):
                fid, client_id, keyframe_id = struct.unpack_from("<qII", payload, off)
                pose, off2 = _unpack_pose(payload, off + 16, 8)
                fov, n_ids = struct.unpack_from("<dI", payload, off2)
                off2 += 12
                ids = np.frombuffer(payload, dtype="<i8", count=n_ids, offset=off2).copy()
                off = off2 + 8 * n_ids
                frames.append(FrameRecord(fid, client_id, keyframe_id, pose, fov, ids))
            return SharedMapResponseMsg(frames, _decode_points(payload, off, n_points, 8))
        if mtype == T_SESSION_REGISTER:
            client_id, fx, fy, cx, cy = struct.unpack_from("<I4d", payload, 0)
            return SessionRegisterMsg(client_id, CameraIntrinsics(fx, fy, cx, cy))
        if mtype == T_SESSION_END:
            (client_id,) = struct.unpack_from("<I", payload, 0)
            return SessionEndMsg(client_id)
        if mtype == T_UPDATE_CHECK:
            client_id, n = struct.unpack_from("<IH", payload, 0)
            off = 6
            kfs = []
            for _ in range(n):
                (length,) = struct.unpack_from("<I", payload, off)
                if off + 4 + length > len(payload):
                    raise DecodeError(f"keyframe of {length} bytes overruns the payload", 8 + off)
                kfs.append(
                    _unpack_keyframe_payload(payload[off + 4 : off + 4 + length], 8 + off + 4)
                )
                off += 4 + length
            if off != len(payload):
                raise DecodeError("trailing bytes after the last keyframe", 8 + off)
            return UpdateCheckMsg(client_id, kfs)
        if mtype == T_UPDATE_STATUS:
            verdict, examined, high, cand, clusters, n = struct.unpack_from("<BIIIII", payload, 0)
            ids = np.frombuffer(payload, dtype="<i8", count=n, offset=21).copy()
            return UpdateStatusMsg(verdict, ids, examined, high, cand, clusters)
        if mtype == T_UPLOAD_ACK:
            return UploadAckMsg(*struct.unpack_from("<q", payload, 0))
        if mtype == T_REGISTER_ACK:
            return RegisterAckMsg(*struct.unpack_from("<I", payload, 0))
        if mtype == T_END_ACK:
            frames, points, elapsed, changed = struct.unpack_from("<IIdB", payload, 0)
            return EndAckMsg(frames, points, elapsed, bool(changed))
        if mtype == T_ERROR:
            code, n = struct.unpack_from("<HH", payload, 0)
            return ErrorMsg(code, payload[4 : 4 + n].decode("utf-8"))
    except (struct.error, ValueError) as e:
        if isinstance(e, DecodeError):
            raise
        raise DecodeError(f"malformed payload for type {mtype}: {e}", 8) from e
    raise DecodeError(f"unknown message type {mtype}", 3, code=E_UNKNOWN_TYPE)


# -- traffic metering -------------------------------------------------------

CATEGORY_OF_TYPE = {
    T_OVERLAP_QUERY: "query",
    T_OVERLAP_RESPONSE: "response",
    T_KEYFRAME_UPLOAD: "keyframe_upload",
    T_SHARED_MAP_REQUEST: "shared_map",
    T_SHARED_MAP_RESPONSE: "shared_map",
    T_SESSION_REGISTER: "session",
    T_SESSION_END: "session",
    T_UPDATE_CHECK: "update_check",
    T_UPDATE_STATUS: "update_check",
    T_UPLOAD_ACK: "ack",
    T_REGISTER_ACK: "ack",
    T_END_ACK: "ack",
    T_ERROR: "error",
}


@dataclass
class TrafficStats:
    """Per-session byte accounting by direction and message category."""

    upload_bytes: dict[str, int] = field(default_factory=dict)
    download_bytes: dict[str, int] = field(default_factory=dict)
    upload_msgs: dict[str, int] = field(default_factory=dict)
    download_msgs: dict[str, int] = field(default_factory=dict)
    keyframes: int = 0

    def note_keyframe(self):
        self.keyframes += 1

    @property
    def total_upload(self) -> int:
        return sum(self.upload_bytes.values())

    @property
    def total_download(self) -> int:
        return sum(self.download_bytes.values())

    def merge(self, other: "TrafficStats"):
        for src, dst in (
            (other.upload_bytes, self.upload_bytes),
            (other.download_bytes, self.download_bytes),
            (other.upload_msgs, self.upload_msgs),
            (other.download_msgs, self.download_msgs),
        ):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        self.keyframes += other.keyframes


def meter(stats: TrafficStats, msg, direction: str, size: int | None = None) -> TrafficStats:
    """Accumulate one message's encoded size under its category."""
    if direction not in ("upload", "download"):
        raise ValueError(f"direction must be upload or download, got {direction}")
    category = CATEGORY_OF_TYPE[message_type(msg)]
    nbytes = len(encode(msg)) if size is None else size
    buckets = stats.upload_bytes if direction == "upload" else stats.download_bytes
    counts = stats.upload_msgs if direction == "upload" else stats.download_msgs
    buckets[category] = buckets.get(category, 0) + nbytes
    counts[category] = counts.get(category, 0) + 1
    return stats
