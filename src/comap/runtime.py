"""Deployable shell: the message-dispatching map server, duplex transports
(in-process and TCP) with optional token-bucket throttling, and the client
pipeline that drives the device protocol over a keyframe stream."""

from __future__ import annotations

import contextlib
import math
import socket
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .expansion import (
    DegenerateCorrespondencesError,
    Keyframe,
    RigidTransform,
    build_response,
    estimate_alignment,
    inject_redundancy,
    integrate_upload,
    on_session_end,
    partition_keyframe,
)
from .geometry import CameraIntrinsics, compute_fov
from .mapstore import GlobalMap, audit
from .overlap import assess_overlap, overlap_from_response
from .params import DEFAULT_PARAMS, ProtocolParams
from .sharing import (
    DeviceAction,
    DeviceLoopState,
    build_shared_map,
    get_update_status,
    run_device_loop,
)
from . import wire
from .wire import (
    DecodeError,
    ErrorMsg,
    KeyframeUploadMsg,
    OverlapQueryMsg,
    RegisterAckMsg,
    EndAckMsg,
    SessionEndMsg,
    SessionRegisterMsg,
    SharedMapRequestMsg,
    SharedMapResponseMsg,
    TrafficStats,
    UpdateCheckMsg,
    UploadAckMsg,
    decode,
    encode,
    frame_length,
    meter,
)


class ProtocolError(Exception):
    """Message violates the session protocol; the session is aborted."""


class TransportError(Exception):
    """The transport failed to deliver a frame."""


class RWLock:
    """Multiple concurrent readers, one exclusive writer."""

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writing = False

    def acquire_read(self):
        with self._cond:
            while self._writing:
                self._cond.wait()
            self._readers += 1

    def release_read(self):
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self):
        with self._cond:
            while self._writing or self._readers:
                self._cond.wait()
            self._writing = True

    def release_write(self):
        with self._cond:
            self._writing = False
            self._cond.notify_all()

    class _Guard:
        def __init__(self, lock, write):
            self._lock, self._write = lock, write

        def __enter__(self):
            (self._lock.acquire_write if self._write else self._lock.acquire_read)()

        def __exit__(self, *exc):
            (self._lock.release_write if self._write else self._lock.release_read)()

    def reading(self):
        return RWLock._Guard(self, False)

    def writing(self):
        return RWLock._Guard(self, True)


_ALIGN_MIN_PAIRS = 10

# Server latencies are counted per message type in fixed log-scale buckets,
# each 2% wide: bucket i holds [LOW * GROWTH**i, LOW * GROWTH**(i + 1)), from
# 1 us to about 640 s; shorter and longer samples land in the end buckets.
_LATENCY_LOW = 1e-6
_LATENCY_GROWTH = 1.02
_LATENCY_BUCKETS = 1024


def _latency_bucket(seconds: float) -> int:
    i = int(math.log(max(seconds, _LATENCY_LOW) / _LATENCY_LOW) / math.log(_LATENCY_GROWTH))
    return min(i, _LATENCY_BUCKETS - 1)


def _latency_quantile(counts: np.ndarray, q: float) -> float:
    """Seconds at quantile ``q`` by nearest rank: the geometric middle of the
    bucket holding that rank, within 1% of every sample in the bucket."""
    rank = max(1, math.ceil(q * int(counts.sum())))
    i = int(np.searchsorted(np.cumsum(counts), rank))
    return _LATENCY_LOW * _LATENCY_GROWTH ** (i + 0.5)


@dataclass
class Session:
    """Server-side per-client state.

    ``memo`` is the last overlap assessment, one tuple ``(key, verdict,
    shared-map response or None)`` with key ``(keyframe id, pose bits,
    sample count, map version)``. The session fixes the rest of what a
    reply depends on (client id, fov, alpha), so the key determines the
    value. The tuple is replaced whole, never edited: two connections
    racing on one client id can lose a hit but never serve a wrong reply.
    """

    client_id: int
    fov: float
    alpha: float
    transform: RigidTransform = field(default_factory=RigidTransform.identity)
    aligned: bool = False
    memo: tuple | None = None


def _derive_seed(base: int, client_id: int, keyframe_id: int) -> int:
    # Stable across transports and runs for a fixed server seed.
    return (base * 1000003 + client_id * 8191 + keyframe_id) & 0x7FFFFFFF


class MapServer:
    """Dispatches protocol messages onto the map engine.

    Reads run concurrently; map writes are serialized by a single lock
    (single-writer / multi-reader via the GIL for array reads plus an
    exclusive mutation lock). A read may rebuild one of the map's spatial
    indices, under that index's own lock; that changes no answer and not
    the map's ``version``.

    Overlap queries and shared-map requests assess each keyframe once per
    map state: an overlap query followed by a shared-map request for the
    same keyframe and pose, or ``f`` identical shared-map requests, cost
    one assessment and one slice. The result is kept in ``Session.memo``
    under the map's ``version``, read and written under the map read lock.
    This relies on the map being append-only, with ``insert_frame`` (under
    the write lock) its only mutator.

    SessionEnd evicts the session, memo included, so the server holds only
    live sessions; ``ended_sessions`` counts the ends.
    """

    def __init__(
        self,
        map: GlobalMap,
        params: ProtocolParams = DEFAULT_PARAMS,
        seed: int = 0,
        auto_align: bool = False,
    ):
        self.map = map
        self.params = params
        self.seed = seed
        self.auto_align = auto_align
        self.sessions: dict[int, Session] = {}
        self.ended_sessions = 0
        self.alpha_overrides: dict[int, float] = {}
        self.ingress_bytes = 0
        self.egress_bytes = 0
        # Per message type: counts in _LATENCY_BUCKETS log-scale buckets.
        self.latencies: dict[str, np.ndarray] = {}
        self._map_lock = RWLock()
        self._session_lock = threading.Lock()
        self._stats_lock = threading.Lock()

    # -- message handling -------------------------------------------------

    @property
    def np_max(self) -> int:
        """Most points a keyframe carries: bounds frame sizes and np hints."""
        return max(self.map.np_max, self.params.np_max)

    @property
    def max_frame_bytes(self) -> int:
        """Largest frame accepted over TCP; a longer header is malformed."""
        return wire.max_request_bytes(self.np_max, self.params.update_window)

    def decode_error_reply(self, error: DecodeError) -> bytes:
        """The error frame answering undecodable bytes, coded as ``error`` says."""
        out = encode(ErrorMsg(error.code, str(error)))
        with self._stats_lock:
            self.egress_bytes += len(out)
        return out

    def handle_bytes(self, raw: bytes) -> bytes:
        """Decode, dispatch, and encode; errors become error frames."""
        with self._stats_lock:
            self.ingress_bytes += len(raw)
        try:
            msg = decode(raw)
        except DecodeError as e:
            return self.decode_error_reply(e)
        t0 = time.perf_counter()
        try:
            reply = self.handle(msg)
        except ProtocolError as e:
            reply = ErrorMsg(wire.E_PROTOCOL, str(e))
        except Exception as e:  # pragma: no cover - defensive
            reply = ErrorMsg(wire.E_INTERNAL, f"{type(e).__name__}: {e}")
        self._note_latency(type(msg).__name__, time.perf_counter() - t0)
        out = encode(reply)
        with self._stats_lock:
            self.egress_bytes += len(out)
        return out

    def _note_latency(self, op: str, seconds: float):
        bucket = _latency_bucket(seconds)
        with self._stats_lock:
            counts = self.latencies.get(op)
            if counts is None:
                counts = self.latencies[op] = np.zeros(_LATENCY_BUCKETS, dtype=np.int64)
            counts[bucket] += 1

    def _session(self, client_id: int) -> Session:
        session = self.sessions.get(client_id)
        if session is None:
            raise ProtocolError(f"client {client_id} is not registered")
        return session

    def handle(self, msg):
        handler = self._HANDLERS.get(type(msg))
        if handler is None:
            raise ProtocolError(f"no handler for {type(msg).__name__}")
        return handler(self, msg)

    def _on_register(self, msg: SessionRegisterMsg) -> RegisterAckMsg:
        with self._session_lock:
            if msg.client_id in self.sessions:
                raise ProtocolError(f"client {msg.client_id} already registered")
            self.sessions[msg.client_id] = Session(
                client_id=msg.client_id,
                fov=compute_fov(msg.intrinsics),
                alpha=self.alpha_overrides.get(msg.client_id, self.params.alpha),
            )
        return RegisterAckMsg(msg.client_id)

    def _assess(self, session: Session, msg) -> tuple:
        """The session's memo entry for this query, assessing on a miss.
        Call under the map read lock."""
        if msg.np_hint > self.np_max:
            raise ProtocolError(f"np hint {msg.np_hint} above the {self.np_max}-point bound")
        k = msg.np_hint if msg.np_hint > 0 else self.params.np_default
        # Pose bits, not float equality: -0.0 and 0.0 are different keys.
        key = (msg.keyframe_id, msg.pose.as_array().tobytes(), k, self.map.version)
        memo = session.memo
        if memo is not None and memo[0] == key:
            return memo
        seed = _derive_seed(self.seed, msg.client_id, msg.keyframe_id)
        verdict = assess_overlap(
            self.map, msg.pose, session.fov, k, seed, params=self.params,
            exclude_client=msg.client_id,
        )
        entry = (key, verdict, None)
        session.memo = entry
        return entry

    def _on_overlap_query(self, msg: OverlapQueryMsg):
        session = self._session(msg.client_id)
        with self._map_lock.reading():
            _, verdict, _ = self._assess(session, msg)
        return build_response(verdict)

    def _on_shared_map_request(self, msg: SharedMapRequestMsg):
        session = self._session(msg.client_id)
        with self._map_lock.reading():
            key, verdict, response = self._assess(session, msg)
            if response is None:
                response = SharedMapResponseMsg()
                if verdict.seen:
                    response = build_shared_map(
                        self.map,
                        msg.pose,
                        session.fov,
                        session.alpha,
                        params=self.params,
                        exclude_client=msg.client_id,
                    ).to_response()
                session.memo = (key, verdict, response)
        return response

    def _on_upload(self, msg: KeyframeUploadMsg) -> UploadAckMsg:
        session = self._session(msg.client_id)
        if len(msg.points) > self.map.np_max:
            raise ProtocolError(f"{len(msg.points)} points above capacity {self.map.np_max}")
        with self._map_lock.writing():
            if self.auto_align and not session.aligned:
                self._try_align(session, msg)
            fid = integrate_upload(self.map, msg, session.transform)
        return UploadAckMsg(fid)

    def _try_align(self, session: Session, msg: KeyframeUploadMsg):
        """Estimate the client-to-global transform from shared landmark ids.
        Fewer than ``_ALIGN_MIN_PAIRS`` pairs, or pairs that leave the
        rotation unconstrained (collinear), leave the session unaligned."""
        rows = self.map.rows_for_ids(msg.points["id"])
        known = rows >= 0
        pairs = list(zip(
            msg.points["position"][known].astype(np.float64),
            self.map.point_positions[rows[known]],
        ))
        if len(self.map.points) == 0:
            # First contributor defines the global frame.
            session.aligned = True
            return
        if len(pairs) >= _ALIGN_MIN_PAIRS:
            try:
                session.transform = estimate_alignment(pairs).transform
            except DegenerateCorrespondencesError:
                return  # as too few pairs: stored with the current transform
            session.aligned = True

    def _on_update_check(self, msg: UpdateCheckMsg):
        session = self._session(msg.client_id)
        if not 0 < len(msg.keyframes) <= self.params.update_window:
            raise ProtocolError(f"{len(msg.keyframes)} keyframes outside the update window")
        with self._map_lock.reading():
            return get_update_status(self.map, msg.keyframes, params=self.params)

    def _on_end(self, msg: SessionEndMsg) -> EndAckMsg:
        with self._session_lock:
            self._session(msg.client_id)
            del self.sessions[msg.client_id]
            self.ended_sessions += 1
        with self._map_lock.reading():
            return on_session_end(self.map, msg.client_id)

    # Keyed by exact class: a SharedMapRequestMsg is also an OverlapQueryMsg.
    _HANDLERS = {
        SessionRegisterMsg: _on_register,
        OverlapQueryMsg: _on_overlap_query,
        SharedMapRequestMsg: _on_shared_map_request,
        KeyframeUploadMsg: _on_upload,
        UpdateCheckMsg: _on_update_check,
        SessionEndMsg: _on_end,
    }

    # -- metrics -----------------------------------------------------------

    def audit(self) -> list[str]:
        return audit(self.map)

    def latency_percentiles(self) -> dict[str, dict[str, float]]:
        """Per message type: median and 95th-percentile latency, each within
        1% of a handled message's, and the message count."""
        with self._stats_lock:
            latencies = {op: counts.copy() for op, counts in self.latencies.items()}
        return {
            op: {
                "p50_ms": _latency_quantile(counts, 0.50) * 1e3,
                "p95_ms": _latency_quantile(counts, 0.95) * 1e3,
                "count": int(counts.sum()),
            }
            for op, counts in latencies.items()
        }


# -- transports --------------------------------------------------------------


class TokenBucket:
    """Blocking token bucket; shared instances enforce a combined cap."""

    def __init__(self, rate_bytes_per_sec: float, capacity: float | None = None):
        if rate_bytes_per_sec <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate_bytes_per_sec)
        self.capacity = float(capacity) if capacity else max(self.rate * 0.1, 4096.0)
        self._tokens = self.capacity
        self._stamp = time.monotonic()
        self._lock = threading.Lock()

    def consume(self, n: int):
        # Debt-based: take the tokens immediately and sleep off any deficit,
        # so frames larger than the burst capacity still pass (slowly).
        with self._lock:
            now = time.monotonic()
            self._tokens = min(self.capacity, self._tokens + (now - self._stamp) * self.rate)
            self._stamp = now
            self._tokens -= n
            wait = -self._tokens / self.rate if self._tokens < 0 else 0.0
        if wait > 0:
            time.sleep(wait)


class InProcTransport:
    """Direct transport: frames are handed to the server in the caller's thread."""

    def __init__(self, server: MapServer, bucket: TokenBucket | None = None):
        self.server = server
        self.bucket = bucket
        self.sent_bytes = 0
        self.received_bytes = 0

    def request(self, raw: bytes) -> bytes:
        if self.bucket is not None:
            self.bucket.consume(len(raw))
        self.sent_bytes += len(raw)
        reply = self.server.handle_bytes(raw)
        if self.bucket is not None:
            self.bucket.consume(len(reply))
        self.received_bytes += len(reply)
        return reply

    def close(self):
        pass


# Bytes one recv asks for: a whole upload frame and more, and the most a
# reader holds beyond what arrived. Larger asks cost a fresh mapping per recv.
_RECV_CHUNK = 1 << 16


def _read_frame(
    sock: socket.socket, max_bytes: int | None = None, pending: bytearray | None = None
) -> bytearray:
    """Read exactly one frame (fixed 64-byte or variable-length).

    Each recv takes whatever has arrived, so a frame that arrived whole
    costs one recv. ``pending`` is the connection's read buffer: bytes past
    the frame stay in it for the next call, so each socket keeps one for as
    long as it reads frames; a caller reading a single reply may leave it
    out. The buffer grows only as bytes arrive, so a header announcing a
    length the peer never sends costs no memory. A header announcing more
    than ``max_bytes`` raises DecodeError as soon as it is in, before the
    reader waits for any of the payload."""
    buf = bytearray() if pending is None else pending
    total = None
    while True:
        if total is None and len(buf) >= 4:
            if buf[3] in wire.FIXED_TYPES:
                total = wire.QUERY_FRAME_SIZE
            elif len(buf) >= 8:
                total = frame_length(buf)
                if max_bytes is not None and total > max_bytes:
                    raise DecodeError(
                        f"frame of {total} bytes exceeds the {max_bytes}-byte limit", 4
                    )
        if total is not None and len(buf) >= total:
            frame = buf[:total]
            del buf[:total]
            return frame
        chunk = sock.recv(_RECV_CHUNK)
        if not chunk:
            raise TransportError("connection closed mid-frame")
        buf += chunk


class TcpTransport:
    """Client side of the TCP transport; one request/response at a time."""

    def __init__(self, addr: tuple[str, int], bucket: TokenBucket | None = None, timeout: float = 10.0):
        self.addr = addr
        self.bucket = bucket
        self.timeout = timeout
        self.sent_bytes = 0
        self.received_bytes = 0
        self._sock: socket.socket | None = None
        self._pending = bytearray()

    def _connect(self):
        if self._sock is None:
            self._sock = socket.create_connection(self.addr, timeout=self.timeout)
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._pending = bytearray()

    def request(self, raw: bytes) -> bytes:
        try:
            self._connect()
            if self.bucket is not None:
                self.bucket.consume(len(raw))
            self._sock.sendall(raw)
            self.sent_bytes += len(raw)
            reply = _read_frame(self._sock, pending=self._pending)
            if self.bucket is not None:
                self.bucket.consume(len(reply))
            self.received_bytes += len(reply)
            return reply
        except (OSError, TransportError) as e:
            self.close()
            raise TransportError(str(e)) from e

    def close(self):
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None


def throttle(transport, cap_bytes_per_sec: float):
    """Attach token-bucket pacing to an existing transport."""
    if cap_bytes_per_sec <= 0:
        raise ValueError("bandwidth cap must be positive")
    transport.bucket = TokenBucket(cap_bytes_per_sec)
    return transport


class TcpMapServer:
    """Threaded TCP front end over a MapServer; same framing as in-process."""

    def __init__(self, server: MapServer, host: str = "127.0.0.1", port: int = 0):
        self.server = server
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.2)
        self.addr = self._listener.getsockname()
        # Each open connection and the thread that serves it, under
        # _conns_lock: a handler drops its own entry when it ends.
        self._conns: dict[socket.socket, threading.Thread] = {}
        self._conns_lock = threading.Lock()
        self._stop = threading.Event()
        self._accept_thread: threading.Thread | None = None

    def start(self):
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        return self

    def _accept_loop(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._conns_lock:
                if self._stop.is_set():
                    conn.close()
                    break
                t = threading.Thread(target=self._serve_conn, args=(conn,), daemon=True)
                self._conns[conn] = t
                t.start()

    def _serve_conn(self, conn: socket.socket):
        """Answer frames on one connected stream socket until it closes."""
        conn.settimeout(30.0)
        pending = bytearray()
        try:
            while not self._stop.is_set():
                try:
                    raw = _read_frame(conn, self.server.max_frame_bytes, pending)
                except TransportError:
                    break
                except DecodeError as e:
                    # The header's length cannot be trusted, so the stream
                    # cannot be resynchronised: answer, then hang up. What
                    # the peer already sent is drained (up to 1 MiB) so the
                    # close is a FIN, not a reset that discards the answer.
                    conn.sendall(self.server.decode_error_reply(e))
                    conn.shutdown(socket.SHUT_WR)
                    conn.settimeout(1.0)
                    for _ in range(16):
                        if not conn.recv(65536):
                            break
                    break
                conn.sendall(self.server.handle_bytes(raw))
        except OSError:
            pass
        finally:
            with self._conns_lock:
                self._conns.pop(conn, None)
            conn.close()

    def stop(self):
        """Stop accepting, hang up every open connection, and return once no
        handler runs: a request already read is answered first, and none is
        served after."""
        with self._conns_lock:
            self._stop.set()
            conns = dict(self._conns)
        try:
            self._listener.close()
        except OSError:
            pass
        for conn in conns:
            # Ends the handler's next or blocked read, not its reply; the
            # handler then closes the connection.
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RD)
        for t in conns.values():
            t.join()
        if self._accept_thread is not None:
            self._accept_thread.join()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()


def serve(map: GlobalMap, host: str = "127.0.0.1", port: int = 0, **kwargs) -> TcpMapServer:
    """Bind a TCP listener over a fresh MapServer for the given map."""
    return TcpMapServer(MapServer(map, **kwargs), host, port).start()


# -- client pipeline ----------------------------------------------------------


class SessionAborted(Exception):
    """Raised when the transport failed repeatedly or the server aborted us."""


class ClientLink:
    """Encode/meter/decode wrapper with a bounded retry policy."""

    RETRIES = 3

    def __init__(self, transport, stats: TrafficStats, trace: list):
        self.transport = transport
        self.stats = stats
        self.trace = trace

    def send(self, msg):
        raw = encode(msg)
        meter(self.stats, msg, "upload", size=len(raw))
        last_error = None
        for _ in range(self.RETRIES):
            try:
                reply_raw = self.transport.request(raw)
                break
            except TransportError as e:
                last_error = e
        else:
            raise SessionAborted(f"transport failed after {self.RETRIES} attempts: {last_error}")
        reply = decode(reply_raw)
        meter(self.stats, reply, "download", size=len(reply_raw))
        if isinstance(reply, ErrorMsg):
            if reply.code == wire.E_PROTOCOL:
                raise SessionAborted(f"server aborted session: {reply.message}")
            self.trace.append({"event": "server_error", "code": reply.code, "message": reply.message})
        return reply


@dataclass
class ClientConfig:
    client_id: int
    intrinsics: CameraIntrinsics
    mode: str = "mapxx"  # or "vanilla"
    params: ProtocolParams = DEFAULT_PARAMS

    def __post_init__(self):
        if self.mode not in ("mapxx", "vanilla"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class ClientResult:
    client_id: int
    trace: list
    stats: TrafficStats
    overlap_degrees: list
    keyframes: int = 0
    uploads: int = 0
    update_events: list = field(default_factory=list)
    aborted: bool = False
    end_ack: EndAckMsg | None = None

    @property
    def freshness(self) -> float:
        if not self.overlap_degrees:
            return 1.0
        return 1.0 - float(np.mean(self.overlap_degrees))

    @property
    def keyframe_payload_bytes(self) -> int:
        return self.stats.upload_bytes.get("keyframe_upload", 0) + self.stats.upload_bytes.get(
            "update_check", 0
        )

    @property
    def map_requests(self) -> int:
        return sum(1 for ev in self.trace if ev.get("event") == "shared_map_request")


def client_pipeline(cfg: ClientConfig, keyframes, transport) -> ClientResult:
    """Drive the device protocol over a stream of observed keyframes.

    mapxx mode sends the 64-byte overlap query per keyframe and branches:
    seen poses move to the shared-map loop, unseen ones partition, inject,
    and upload. Vanilla mode uploads every keyframe unconditionally.
    """
    params = cfg.params
    trace: list = []
    stats = TrafficStats()
    result = ClientResult(cfg.client_id, trace, stats, overlap_degrees=[])
    link = ClientLink(transport, stats, trace)
    fov = compute_fov(cfg.intrinsics)
    state = DeviceLoopState(
        client_id=cfg.client_id,
        fov=fov,
        link=link,
        params=params,
        trace=trace,
    )

    def upload(kf: Keyframe):
        msg = kf.to_upload_msg(cfg.client_id)
        reply = link.send(msg)
        if isinstance(reply, UploadAckMsg):
            result.uploads += 1
            trace.append(
                {
                    "event": "upload",
                    "keyframe_id": kf.keyframe_id,
                    "points": len(kf),
                    "frame_id": reply.frame_id,
                }
            )

    try:
        reply = link.send(SessionRegisterMsg(cfg.client_id, cfg.intrinsics))
        if not isinstance(reply, RegisterAckMsg):
            raise SessionAborted(f"registration rejected: {reply}")
        for kf in keyframes:
            result.keyframes += 1
            state.recent_kfs.append(kf)
            trace.append(
                {
                    "event": "keyframe",
                    "keyframe_id": kf.keyframe_id,
                    "points": len(kf),
                }
            )

            if cfg.mode == "vanilla":
                upload(kf)
                continue

            if state.has_slice():
                outcome = state.localize_on_slice(kf.positions)
                trace.append(
                    {
                        "event": "localize_local",
                        "keyframe_id": kf.keyframe_id,
                        "matched": outcome.matched_count,
                        "success": outcome.success,
                    }
                )
                if outcome.success:
                    result.overlap_degrees.append(1.0)
                    continue
                action = run_device_loop(state, kf.keyframe_id, kf.pose, kf.positions)
                if action is not DeviceAction.EXPAND:
                    result.overlap_degrees.append(1.0)
                    continue
                state.clear_slice()  # fall through to the expansion path

            query = OverlapQueryMsg(cfg.client_id, kf.keyframe_id, len(kf), kf.pose)
            resp = link.send(query)
            if not isinstance(resp, wire.OverlapResponseMsg):
                continue
            k = len(kf) if len(kf) > 0 else params.np_default
            degree = overlap_from_response(resp.status, len(resp.samples), k)
            result.overlap_degrees.append(degree)
            trace.append(
                {
                    "event": "overlap_response",
                    "keyframe_id": kf.keyframe_id,
                    "status": resp.status,
                    "listed": len(resp.samples),
                    "degree": round(degree, 6),
                }
            )
            if degree > params.t_seen:
                action = run_device_loop(state, kf.keyframe_id, kf.pose, kf.positions)
                if action is not DeviceAction.EXPAND:
                    continue
                state.clear_slice()
            keep = partition_keyframe(kf, resp)
            inject = inject_redundancy(kf, keep)
            trace.append(
                {
                    "event": "partition",
                    "keyframe_id": kf.keyframe_id,
                    "kept": int(keep.sum()),
                    "injected": int(inject.sum()),
                    "injected_ids": np.sort(kf.landmark_ids[inject]).tolist(),
                }
            )
            upload(kf.subset(keep | inject))

        reply = link.send(SessionEndMsg(cfg.client_id))
        if isinstance(reply, EndAckMsg):
            result.end_ack = reply
            trace.append(
                {
                    "event": "session_end",
                    "frames": reply.frame_count,
                    "points": reply.point_count,
                }
            )
    except SessionAborted as e:
        result.aborted = True
        trace.append({"event": "aborted", "reason": str(e)})
    result.update_events = list(state.update_events)
    return result
