import collections
import json
import math
import socket
import struct
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings

from comap import overlap, runtime, scenario, sharing
from comap.expansion import Keyframe, RigidTransform, build_response
from comap.geometry import Pose, cone_from_fov, sample_cone
from comap.mapstore import GlobalMap
from comap.params import ProtocolParams
from comap.runtime import (
    ClientConfig,
    InProcTransport,
    MapServer,
    TcpMapServer,
    TcpTransport,
    TokenBucket,
    TransportError,
    _derive_seed,
    _read_frame,
    client_pipeline,
    serve,
    throttle,
)
from comap.scenario import ScenarioConfig, UserSpec, run_scenario
from comap.sim import TrajectorySpec, generate_keyframes, generate_scene
from comap import wire
from comap.wire import (
    VERDICT_EXPANSION,
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
    UpdateCheckMsg,
    UpdateStatusMsg,
    UploadAckMsg,
    decode,
    encode,
)

from conftest import (
    SIM_INTR,
    ScriptedTransport,
    planted_change_config,
    point_records,
    two_user_config,
)
from test_wire import mutated_frames

PARAMS = ProtocolParams()


def fresh_server(**kw):
    return MapServer(GlobalMap(np_max=PARAMS.np_max), params=PARAMS, **kw)


def register(server, client_id=1):
    reply = decode(server.handle_bytes(encode(SessionRegisterMsg(client_id, SIM_INTR))))
    assert isinstance(reply, RegisterAckMsg)
    return reply


class ServedSocket:
    """One end of a socket pair whose other end a ``TcpMapServer`` connection
    thread serves."""

    def __init__(self, server, timeout=5.0):
        self.front = TcpMapServer(server)
        self.sock, theirs = socket.socketpair()
        self.sock.settimeout(timeout)
        self.thread = threading.Thread(target=self.front._serve_conn, args=(theirs,), daemon=True)
        self.thread.start()

    def __enter__(self):
        return self.sock

    def __exit__(self, *exc):
        self.sock.close()
        self.thread.join(timeout=5.0)
        self.front.stop()


class TestServerDispatch:
    def test_cold_start_query_is_all_fresh(self):
        server = fresh_server()
        register(server)
        q = OverlapQueryMsg(1, 0, 300, Pose(0, 0, 1.5, 0, math.pi / 2, 0))
        reply = decode(server.handle_bytes(encode(q)))
        assert isinstance(reply, OverlapResponseMsg)
        assert reply.status == 0
        assert len(reply.samples) == 0  # empty redundant list: expansion branch

    def test_upload_then_shared_request_roundtrip(self, rng):
        server = fresh_server()
        register(server, 1)
        register(server, 2)
        pose = Pose(0, 0, 1.5, 0, math.pi / 2, 0)
        pts = point_records(
            np.arange(1, 201), pose.position + rng.uniform(0, 12, (200, 3))
        )
        ack = decode(server.handle_bytes(encode(KeyframeUploadMsg(1, 0, pose, 1.38, pts))))
        assert isinstance(ack, UploadAckMsg)
        # Client 2 asks for a slice at the mapped pose.
        req = SharedMapRequestMsg(2, 0, 200, pose)
        reply = decode(server.handle_bytes(encode(req)))
        assert isinstance(reply, SharedMapResponseMsg)

    def test_query_before_register_is_protocol_error(self):
        server = fresh_server()
        reply = decode(
            server.handle_bytes(encode(OverlapQueryMsg(5, 0, 10, Pose(0, 0, 0))))
        )
        assert isinstance(reply, ErrorMsg)
        assert reply.code == wire.E_PROTOCOL

    def test_end_for_unknown_client_is_protocol_error(self):
        server = fresh_server()
        reply = decode(server.handle_bytes(encode(SessionEndMsg(77))))
        assert isinstance(reply, ErrorMsg)
        assert reply.code == wire.E_PROTOCOL

    def test_double_register_rejected(self):
        server = fresh_server()
        register(server, 1)
        reply = decode(server.handle_bytes(encode(SessionRegisterMsg(1, SIM_INTR))))
        assert isinstance(reply, ErrorMsg)

    def test_message_after_end_rejected(self):
        server = fresh_server()
        register(server, 1)
        decode(server.handle_bytes(encode(SessionEndMsg(1))))
        reply = decode(
            server.handle_bytes(encode(OverlapQueryMsg(1, 1, 10, Pose(0, 0, 0))))
        )
        assert isinstance(reply, ErrorMsg)
        assert reply.code == wire.E_PROTOCOL

    def test_malformed_frame_keeps_session(self):
        server = fresh_server()
        register(server, 1)
        reply = decode(server.handle_bytes(b"\x51\x4d\x01\x07" + b"\x00" * 8))
        assert isinstance(reply, ErrorMsg)
        assert reply.code == wire.E_MALFORMED
        # Session still usable afterwards.
        ok = decode(server.handle_bytes(encode(OverlapQueryMsg(1, 0, 10, Pose(0, 0, 0)))))
        assert isinstance(ok, OverlapResponseMsg)

    @pytest.mark.parametrize("fov", [0.0, math.nan])
    def test_bad_fov_is_malformed_and_stores_nothing(self, rng, fov):
        server = fresh_server()
        register(server, 1)
        pts = point_records(np.arange(1, 41), rng.uniform(0, 10, (40, 3)))
        upload = KeyframeUploadMsg(1, 0, Pose(0, 0, 1.5, 0, math.pi / 2, 0), fov, pts)
        for msg in (upload, UpdateCheckMsg(1, [upload])):
            reply = decode(server.handle_bytes(encode(msg)))
            assert isinstance(reply, ErrorMsg)
            assert reply.code == wire.E_MALFORMED
        assert (len(server.map.frames), len(server.map.points)) == (0, 0)

    def test_non_finite_point_position_is_malformed_and_stores_nothing(self, rng):
        # Client 2's points lie in client 1's cone, so the update check
        # reaches its re-observation test.
        server = fresh_server()
        register(server, 1)
        register(server, 2)
        pose = Pose(0, 0, 1.5, 0, math.pi / 2, 0)
        pts = point_records(np.arange(1, 201), pose.position + rng.uniform(0, 12, (200, 3)))
        server.handle_bytes(encode(KeyframeUploadMsg(2, 0, pose, 1.38, pts)))
        bad = point_records(np.arange(1001, 1041), rng.uniform(0, 10, (40, 3)))
        bad["position"][1, 2] = math.nan
        upload = KeyframeUploadMsg(1, 0, pose, 1.38, bad)
        for msg in (upload, UpdateCheckMsg(1, [upload])):
            reply = decode(server.handle_bytes(encode(msg)))
            assert isinstance(reply, ErrorMsg)
            assert reply.code == wire.E_MALFORMED
        assert (len(server.map.frames), len(server.map.points)) == (1, 200)

    def test_upload_above_np_max_is_protocol_error_and_stores_nothing(self, rng):
        server = fresh_server()
        register(server, 1)
        n = server.map.np_max
        pts = point_records(np.arange(1, n + 2), rng.uniform(0, 10, (n + 1, 3)))
        pose = Pose(0, 0, 1.5, 0, math.pi / 2, 0)
        reply = decode(server.handle_bytes(encode(KeyframeUploadMsg(1, 0, pose, 1.38, pts))))
        assert isinstance(reply, ErrorMsg)
        assert reply.code == wire.E_PROTOCOL
        assert (len(server.map.frames), len(server.map.points)) == (0, 0)
        ack = decode(server.handle_bytes(encode(KeyframeUploadMsg(1, 0, pose, 1.38, pts[:n]))))
        assert isinstance(ack, UploadAckMsg)

    def test_np_hint_above_np_max_is_protocol_error(self):
        server = fresh_server()
        register(server, 1)
        limit = max(server.map.np_max, PARAMS.np_max)
        pose = Pose(0, 0, 1.5, 0, math.pi / 2, 0)
        for cls, reply_cls in ((OverlapQueryMsg, OverlapResponseMsg),
                               (SharedMapRequestMsg, SharedMapResponseMsg)):
            ok = decode(server.handle_bytes(encode(cls(1, 0, limit, pose))))
            assert isinstance(ok, reply_cls)
            for hint in (limit + 1, 0xFFFF):
                reply = decode(server.handle_bytes(encode(cls(1, 0, hint, pose))))
                assert isinstance(reply, ErrorMsg)
                assert reply.code == wire.E_PROTOCOL

    def test_update_check_longer_than_window_is_protocol_error(self, rng):
        server = fresh_server()
        register(server, 1)
        window = PARAMS.update_window
        pts = point_records(np.arange(1, 41), rng.uniform(0, 10, (40, 3)))
        kfs = [KeyframeUploadMsg(1, i, Pose(0, 0, 1.5), 1.38, pts) for i in range(window + 1)]
        ok = decode(server.handle_bytes(encode(UpdateCheckMsg(1, kfs[:window]))))
        assert isinstance(ok, wire.UpdateStatusMsg)
        reply = decode(server.handle_bytes(encode(UpdateCheckMsg(1, kfs))))
        assert isinstance(reply, ErrorMsg)
        assert reply.code == wire.E_PROTOCOL

    def test_reply_type_sent_to_server_is_protocol_error(self):
        server = fresh_server()
        register(server, 1)
        for msg in (RegisterAckMsg(1), UploadAckMsg(7), SharedMapResponseMsg()):
            reply = decode(server.handle_bytes(encode(msg)))
            assert isinstance(reply, ErrorMsg)
            assert reply.code == wire.E_PROTOCOL
            assert reply.message == f"no handler for {type(msg).__name__}"
        assert list(server.sessions) == [1]

    def test_unknown_type_byte_never_crashes(self):
        server = fresh_server()
        raw = struct.pack("<HBBI", 0x4D51, 1, 222, 4) + b"abcd"
        reply = decode(server.handle_bytes(raw))
        assert isinstance(reply, ErrorMsg)

    def test_session_end_emits_one_report(self, rng):
        server = fresh_server()
        register(server, 1)
        register(server, 2)
        pts = point_records(np.arange(1, 41), rng.uniform(0, 10, (40, 3)))
        server.handle_bytes(encode(KeyframeUploadMsg(2, 0, Pose(0, 0, 0), 1.38, pts)))
        ack = decode(server.handle_bytes(encode(SessionEndMsg(1))))
        assert ack == wire.EndAckMsg(1, 40, elapsed_seconds=0.0, map_changed=False)
        assert list(server.sessions) == [2] and server.ended_sessions == 1
        late = decode(server.handle_bytes(encode(OverlapQueryMsg(1, 0, 10, Pose(0, 0, 0)))))
        assert late.code == wire.E_PROTOCOL and "not registered" in late.message

    def test_latency_percentiles_populated(self):
        server = fresh_server()
        register(server, 1)
        for i in range(5):
            server.handle_bytes(encode(OverlapQueryMsg(1, i, 10, Pose(0, 0, 0))))
        stats = server.latency_percentiles()
        assert stats["OverlapQueryMsg"]["count"] == 5
        assert stats["OverlapQueryMsg"]["p50_ms"] >= 0.0

    def test_latency_percentiles_within_one_percent(self, rng):
        server = fresh_server()
        samples = np.exp(rng.uniform(math.log(2e-5), math.log(2.0), 501))
        for seconds in samples:
            server._note_latency("OverlapQueryMsg", float(seconds))
        stats = server.latency_percentiles()["OverlapQueryMsg"]
        assert stats["count"] == 501
        for key, q in (("p50_ms", 50), ("p95_ms", 95)):
            nearest_rank = np.percentile(samples, q, method="inverted_cdf") * 1e3
            assert stats[key] == pytest.approx(nearest_rank, rel=0.0101)
        # Samples outside the bucket range are counted in the end buckets.
        server._note_latency("SessionEndMsg", 0.0)
        server._note_latency("SessionEndMsg", 1e6)
        assert server.latencies["SessionEndMsg"][[0, -1]].tolist() == [1, 1]


def scratch_reply(server, msg) -> bytes:
    """The encoded reply to an overlap query or shared-map request, computed
    from scratch on the server's current map, bypassing its memo."""
    session = server.sessions[msg.client_id]
    k = msg.np_hint if msg.np_hint > 0 else server.params.np_default
    seed = _derive_seed(server.seed, msg.client_id, msg.keyframe_id)
    verdict = overlap.assess_overlap(
        server.map, msg.pose, session.fov, k, seed, params=server.params,
        exclude_client=msg.client_id,
    )
    if not isinstance(msg, SharedMapRequestMsg):
        return encode(build_response(verdict))
    if not verdict.seen:
        return encode(SharedMapResponseMsg())
    return encode(
        sharing.build_shared_map(
            server.map, msg.pose, session.fov, session.alpha, params=server.params,
            exclude_client=msg.client_id,
        ).to_response()
    )


@pytest.fixture
def engine_calls(monkeypatch):
    """Counts of the server's ``assess_overlap`` and ``build_shared_map`` calls."""
    counts = collections.Counter()

    def spy(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in ("assess_overlap", "build_shared_map"):
        monkeypatch.setattr(runtime, name, spy(name, getattr(runtime, name)))
    return counts


MEMO_POSE = Pose(0, 0, 1.5, 0, math.pi / 2, 0)


def mapped_server(rng, **kw):
    """Client 1 has mapped the cone at MEMO_POSE densely (three 300-point
    keyframes), so client 2's queries there are seen; both are registered."""
    server = fresh_server(**kw)
    register(server, 1)
    register(server, 2)
    for kf in range(3):
        upload(server, kf, rng)
    return server


def upload(server, keyframe_id, rng):
    cone = cone_from_fov(MEMO_POSE, 1.38, PARAMS.h)
    pts, _ = sample_cone(cone, 300, seed=int(rng.integers(1 << 30)))
    ids = np.arange(1, 301) + 1000 * keyframe_id
    msg = KeyframeUploadMsg(1, keyframe_id, MEMO_POSE, 1.38, point_records(ids, pts))
    assert isinstance(decode(server.handle_bytes(encode(msg))), UploadAckMsg)


class TestAutoAlign:
    def test_second_client_is_moved_into_the_global_frame(self, rng):
        server = fresh_server(auto_align=True)
        register(server, 1)
        register(server, 2)
        ids = np.arange(1, 61)
        glob = rng.uniform(-10, 10, (60, 3))
        # Client 2 maps in its own frame: a random proper rigid transform of the global one.
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        to_local = RigidTransform(q * np.linalg.det(q), rng.uniform(-5, 5, 3))

        def send(client_id, rows, positions):
            msg = KeyframeUploadMsg(client_id, 0, Pose(0, 0, 0), 1.38, point_records(ids[rows], positions))
            assert isinstance(decode(server.handle_bytes(encode(msg))), UploadAckMsg)

        send(1, slice(0, 40), glob[:40])
        send(2, slice(20, 60), to_local.apply(glob[20:]))  # 20 shared, 20 new
        assert server.sessions[1].aligned and server.sessions[2].aligned
        stored = server.map.point_positions[server.map.rows_for_ids(ids[40:])]
        # Float32 wire rounding is the only error.
        assert np.linalg.norm(stored - glob[40:], axis=1).max() < 1e-5

    def test_collinear_shared_points_leave_the_session_unaligned(self, rng):
        server = fresh_server(auto_align=True)
        register(server, 1)
        register(server, 2)
        ids = np.arange(1, 31)
        line = np.outer(np.linspace(-10, 10, 30), [1.0, 0.5, 0.25])

        def send(client_id, rows, positions):
            msg = KeyframeUploadMsg(client_id, 0, Pose(0, 0, 0), 1.38, point_records(ids[rows], positions))
            return decode(server.handle_bytes(encode(msg)))

        assert isinstance(send(1, slice(0, 20), line[:20] + rng.uniform(-1, 1, (20, 3))), UploadAckMsg)
        # 12 shared ids at collinear local positions: the rotation is
        # unconstrained, so the upload is stored with the current transform.
        assert isinstance(send(2, slice(8, 30), line[8:]), UploadAckMsg)
        assert not server.sessions[2].aligned
        stored = server.map.point_positions[server.map.rows_for_ids(ids[20:])]
        np.testing.assert_allclose(stored, line[20:], atol=1e-5)


class TestAssessmentMemo:
    def test_replies_equal_scratch_replies_over_scenarios(self, monkeypatch, engine_calls):
        checked = collections.Counter()

        class ScratchChecked(InProcTransport):
            def request(self, raw):
                msg = decode(raw)
                want = None
                if isinstance(msg, (OverlapQueryMsg, SharedMapRequestMsg)):
                    want = scratch_reply(self.server, msg)
                reply = super().request(raw)
                if want is not None:
                    assert reply == want, (type(msg).__name__, msg.client_id, msg.keyframe_id)
                    checked[type(msg).__name__] += 1
                return reply

        monkeypatch.setattr(scenario, "InProcTransport", ScratchChecked)
        # The follower scenario, then the planted change, whose follower
        # repeats shared-map requests where the removed cars fail to localize.
        run_scenario(two_user_config(length=30.0, landmarks=9000))
        run_scenario(planted_change_config())
        assert checked["OverlapQueryMsg"] and checked["SharedMapRequestMsg"]
        # Some replies came from the memo.
        assert engine_calls["assess_overlap"] < sum(checked.values())

    def test_repeated_request_is_not_reassessed(self, rng, engine_calls):
        server = mapped_server(rng)
        req = encode(SharedMapRequestMsg(2, 7, 100, MEMO_POSE))
        first = server.handle_bytes(req)
        assert not decode(first).empty
        assert server.handle_bytes(req) == first
        assert engine_calls == {"assess_overlap": 1, "build_shared_map": 1}
        # The overlap query for the same keyframe reuses the assessment ...
        query = OverlapQueryMsg(2, 7, 100, MEMO_POSE)
        assert server.handle_bytes(encode(query)) == scratch_reply(server, query)
        assert engine_calls == {"assess_overlap": 1, "build_shared_map": 1}
        # ... and so does a shared-map request after an overlap query.
        query = OverlapQueryMsg(2, 8, 100, MEMO_POSE)
        req = SharedMapRequestMsg(2, 8, 100, MEMO_POSE)
        server.handle_bytes(encode(query))
        assert server.handle_bytes(encode(req)) == scratch_reply(server, req)
        assert engine_calls == {"assess_overlap": 2, "build_shared_map": 2}

    def test_upload_between_requests_forces_recompute(self, rng, engine_calls):
        server = mapped_server(rng)
        req = SharedMapRequestMsg(2, 7, 100, MEMO_POSE)
        before = server.handle_bytes(encode(req))
        upload(server, 3, rng)
        after = server.handle_bytes(encode(req))
        assert engine_calls == {"assess_overlap": 2, "build_shared_map": 2}
        assert after == scratch_reply(server, req)
        assert after != before  # the new frame's points are in the slice

    def test_signed_zero_pose_is_another_key(self, rng, engine_calls):
        server = mapped_server(rng)
        plus = Pose(0.0, 0.0, 1.5, 0.0, math.pi / 2, 0.0)
        minus = Pose(-0.0, 0.0, 1.5, 0.0, math.pi / 2, 0.0)
        assert plus == minus
        for pose in (plus, minus):
            server.handle_bytes(encode(OverlapQueryMsg(2, 7, 100, pose)))
        assert engine_calls["assess_overlap"] == 2

    def test_session_end_empties_the_memo(self, rng):
        server = mapped_server(rng)
        server.handle_bytes(encode(SharedMapRequestMsg(2, 7, 100, MEMO_POSE)))
        assert server.sessions[2].memo is not None
        server.handle_bytes(encode(SessionEndMsg(2)))
        assert 2 not in server.sessions

    def test_connections_sharing_a_client_id_get_only_correct_replies(self, rng):
        server = mapped_server(rng)
        msgs = [
            cls(2, kf, np_hint, MEMO_POSE)
            for cls in (OverlapQueryMsg, SharedMapRequestMsg)
            for kf in (7, 8)
            for np_hint in (60, 100)
        ]
        want = {encode(m): scratch_reply(server, m) for m in msgs}
        wrong = []

        def worker(offset):
            for i in range(24):
                raw = encode(msgs[(offset + i) % len(msgs)])
                if server.handle_bytes(raw) != want[raw]:
                    wrong.append(raw)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(j,)) for j in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


class TestUploadMessages:
    def test_to_upload_msg_runs_once_per_keyframe_sent(self, monkeypatch):
        # Uploads build one message each; the update-check window keeps
        # device keyframes and builds messages only when a check is sent.
        built = []
        original = Keyframe.to_upload_msg

        def counted(kf, client_id):
            built.append(kf.keyframe_id)
            return original(kf, client_id)

        monkeypatch.setattr(Keyframe, "to_upload_msg", counted)
        metrics = run_scenario(planted_change_config())
        events = [ev for trace in metrics.traces.values() for ev in trace]
        uploads = sum(ev["event"] == "upload" for ev in events)
        windows = [ev["window"] for ev in events if ev["event"] == "update_check"]
        assert windows, "the planted change never reached an update check"
        assert len(built) == uploads + sum(windows)


class TestTokenBucket:
    def test_pacing_near_cap(self):
        cap = 200_000.0
        bucket = TokenBucket(cap, capacity=cap * 0.05)
        payload = 10_000
        t0 = time.monotonic()
        total = 0
        while total < 60_000:
            bucket.consume(payload)
            total += payload
        elapsed = time.monotonic() - t0
        rate = (total - cap * 0.05) / elapsed
        assert rate <= cap * 1.15
        assert rate >= cap * 0.5  # pacing, not stalling

    def test_shared_bucket_caps_combined_throughput(self):
        cap = 300_000.0
        bucket = TokenBucket(cap, capacity=1_000)
        import threading

        done = {}

        def worker(name):
            t0 = time.monotonic()
            sent = 0
            while sent < 30_000:
                bucket.consume(5_000)
                sent += 5_000
            done[name] = (sent, time.monotonic() - t0)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        t0 = time.monotonic()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.monotonic() - t0
        combined = sum(v[0] for v in done.values()) / elapsed
        assert combined <= cap * 1.2

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            TokenBucket(0)
        with pytest.raises(ValueError):
            throttle(InProcTransport(fresh_server()), 0)

    def test_throttle_attaches_bucket(self):
        transport = throttle(InProcTransport(fresh_server()), 1e9)
        assert transport.bucket is not None
        register_raw = encode(SessionRegisterMsg(1, SIM_INTR))
        assert isinstance(decode(transport.request(register_raw)), RegisterAckMsg)


class TestTcpTransport:
    def test_loopback_roundtrip(self):
        gmap = GlobalMap(np_max=PARAMS.np_max)
        front = serve(gmap, params=PARAMS)
        try:
            t = TcpTransport(front.addr)
            reply = decode(t.request(encode(SessionRegisterMsg(1, SIM_INTR))))
            assert isinstance(reply, RegisterAckMsg)
            reply = decode(t.request(encode(OverlapQueryMsg(1, 0, 50, Pose(0, 0, 0)))))
            assert isinstance(reply, OverlapResponseMsg)
            assert t.sent_bytes == 64 + len(encode(SessionRegisterMsg(1, SIM_INTR)))
            t.close()
        finally:
            front.stop()

    def test_bad_magic_variable_frame_gets_error_frame_then_close(self):
        # A variable-type header with a bad magic number: the length field
        # cannot be trusted, so the server answers as in-process and hangs up.
        raw = struct.pack("<HBBI", 0xBEEF, 1, 3, 4) + b"abcd"
        expected = fresh_server().handle_bytes(raw)
        assert decode(expected).code == wire.E_MALFORMED
        front = serve(GlobalMap(np_max=PARAMS.np_max), params=PARAMS)
        try:
            with socket.create_connection(front.addr, timeout=5.0) as sock:
                sock.sendall(raw)
                reply = b""
                while chunk := sock.recv(4096):
                    reply += chunk
            assert reply == expected
        finally:
            front.stop()

    def test_unknown_type_gets_unknown_type_code_and_connection_stays_open(self):
        raw = struct.pack("<HBBI", 0x4D51, 1, 99, 4) + b"abcd"
        expected = fresh_server().handle_bytes(raw)
        assert decode(expected).code == wire.E_UNKNOWN_TYPE
        front = serve(GlobalMap(np_max=PARAMS.np_max), params=PARAMS)
        try:
            t = TcpTransport(front.addr)
            assert t.request(raw) == expected
            reply = decode(t.request(encode(SessionRegisterMsg(1, SIM_INTR))))
            assert isinstance(reply, RegisterAckMsg)
            t.close()
        finally:
            front.stop()

    def test_oversized_length_gets_malformed_promptly(self):
        with ServedSocket(fresh_server(), timeout=2.0) as sock:
            t0 = time.perf_counter()
            sock.sendall(struct.pack("<HBBI", 0x4D51, 1, wire.T_KEYFRAME_UPLOAD, 0xFFFFFFFF))
            reply = decode(_read_frame(sock))
            assert time.perf_counter() - t0 < 1.0
            assert isinstance(reply, ErrorMsg) and reply.code == wire.E_MALFORMED
            assert sock.recv(1) == b""  # then the server hangs up

    def test_uncapped_read_grows_with_the_payload(self):
        # A 64 MiB shared-map-response header, then the peer hangs up: the
        # client's reader must fail without reserving the announced length.
        mine, theirs = socket.socketpair()
        mine.settimeout(5.0)
        theirs.sendall(struct.pack("<HBBI", 0x4D51, 1, wire.T_SHARED_MAP_RESPONSE, 64 << 20))
        theirs.sendall(b"\x00" * 1000)
        theirs.close()
        tracemalloc.start()
        try:
            with pytest.raises(TransportError):
                _read_frame(mine)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            mine.close()
        assert peak < 4 << 20

    def test_largest_update_check_is_accepted(self):
        server = fresh_server()
        register(server, 1)
        n, window = PARAMS.np_max, PARAMS.update_window
        kf = Keyframe(0, Pose(0, 0, 0), 1.4, np.arange(n), np.zeros((n, 3)),
                      np.zeros((n, 32), np.uint8), np.ones(n))
        raw = encode(wire.UpdateCheckMsg(1, [kf.to_upload_msg(1)] * window))
        assert len(raw) == server.max_frame_bytes
        with ServedSocket(server) as sock:
            sock.sendall(raw)
            assert isinstance(decode(_read_frame(sock)), wire.UpdateStatusMsg)

    @given(mutated_frames(framed=True))
    @settings(max_examples=100, deadline=None)
    def test_fuzzed_frames_get_equal_replies_in_process_and_over_tcp(self, raw):
        inproc, remote = fresh_server(), fresh_server()
        if len(raw) >= 12:
            (client_id,) = struct.unpack_from("<I", raw, 4 if raw[3] in wire.FIXED_TYPES else 8)
            register(inproc, client_id)
            register(remote, client_id)
        expected = inproc.handle_bytes(raw)
        with ServedSocket(remote) as sock:
            sock.sendall(raw)
            assert _read_frame(sock) == expected

    def test_connection_refused_raises_transport_error(self):
        t = TcpTransport(("127.0.0.1", 1))  # nothing listens on port 1
        with pytest.raises(TransportError):
            t.request(encode(SessionEndMsg(1)))

    def test_finished_connection_threads_are_dropped(self):
        front = serve(GlobalMap(np_max=PARAMS.np_max), params=PARAMS)

        def stored_latency_values():
            return sum(np.asarray(v).size for v in front.server.latencies.values())

        try:
            for client_id in range(1, 65):
                t = TcpTransport(front.addr)
                reply = decode(t.request(encode(SessionRegisterMsg(client_id, SIM_INTR))))
                assert isinstance(reply, RegisterAckMsg)
                assert isinstance(decode(t.request(encode(SessionEndMsg(client_id)))), wire.EndAckMsg)
                t.close()
                if client_id == 8:
                    early = stored_latency_values()
            # One connection at a time: at most the last few remain tracked.
            assert len(front._conns) <= 8
            assert front.server.sessions == {} and front.server.ended_sessions == 64
            # Latencies are kept per message type, not per message.
            assert stored_latency_values() == early
            stats = front.server.latency_percentiles()
            assert stats["SessionRegisterMsg"]["count"] == stats["SessionEndMsg"]["count"] == 64
        finally:
            front.stop()


    def test_stop_closes_open_connections_and_joins_their_handlers(self, rng):
        before = set(threading.enumerate())
        front = serve(GlobalMap(np_max=PARAMS.np_max), params=PARAMS)
        links = [TcpTransport(front.addr, timeout=5.0) for _ in range(4)]
        for client_id, t in enumerate(links, 1):
            assert isinstance(decode(t.request(encode(SessionRegisterMsg(client_id, SIM_INTR)))),
                              RegisterAckMsg)
        handlers = set(threading.enumerate()) - before
        assert len(handlers) == 5  # the accept loop and one per connection
        t0 = time.perf_counter()
        front.stop()
        assert time.perf_counter() - t0 < 2.0
        assert not any(t.is_alive() for t in handlers)
        # An upload on a connection opened before the stop is not served.
        pts = rng.uniform(-5, 5, (20, 3))
        upload = KeyframeUploadMsg(1, 0, Pose(0, 0, 0), 1.38, point_records(np.arange(1, 21), pts))
        with pytest.raises(TransportError):
            links[0].request(encode(upload))
        assert front.server.map.version == 0
        for t in links:
            t.close()


class ChunkedSocket:
    """A stream socket stand-in: each recv returns the next scripted chunk
    (cut to the size asked for), then b"" once the script runs out."""

    def __init__(self, *chunks):
        self.chunks = collections.deque(chunks)
        self.recvs = 0

    def recv(self, n):
        self.recvs += 1
        if not self.chunks:
            return b""
        chunk = self.chunks.popleft()
        if len(chunk) > n:
            self.chunks.appendleft(chunk[n:])
        return chunk[:n]


class TestReadFrame:
    def frames(self):
        query = encode(OverlapQueryMsg(1, 3, 300, Pose(1, 2, 3)))
        register = encode(SessionRegisterMsg(9, SIM_INTR))
        end = encode(SessionEndMsg(9))
        return query, register, end

    def test_a_frame_that_arrived_whole_costs_one_recv(self):
        for raw in self.frames():
            sock = ChunkedSocket(raw)
            assert _read_frame(sock, pending=bytearray()) == raw
            assert sock.recvs == 1

    def test_bytes_past_a_frame_wait_for_the_next_read(self):
        query, register, end = self.frames()
        stream = query + register + end
        sock = ChunkedSocket(stream[: len(query) + 10], stream[len(query) + 10 :])
        pending = bytearray()
        assert _read_frame(sock, pending=pending) == query
        assert sock.recvs == 1 and pending == register[:10]
        assert _read_frame(sock, pending=pending) == register
        assert _read_frame(sock, pending=pending) == end
        assert sock.recvs == 2 and not pending
        with pytest.raises(TransportError):
            _read_frame(sock, pending=pending)

    def test_frames_cut_anywhere_read_the_same(self):
        stream = b"".join(self.frames())
        for cut in range(1, len(stream), 7):
            sock = ChunkedSocket(*(stream[i : i + cut] for i in range(0, len(stream), cut)))
            pending = bytearray()
            assert [_read_frame(sock, pending=pending) for _ in range(3)] == list(self.frames())

    def test_oversized_header_is_refused_before_reading_on(self):
        header = struct.pack("<HBBI", 0x4D51, 1, wire.T_KEYFRAME_UPLOAD, 5000)
        sock = ChunkedSocket(header[:3], header[3:] + b"\x00" * 100, b"\x00" * 4900)
        with pytest.raises(wire.DecodeError):
            _read_frame(sock, 1000, bytearray())
        assert sock.recvs == 2

    def test_peer_closing_mid_frame_is_a_transport_error(self):
        query = self.frames()[0]
        for cut in (0, 3, 20):
            with pytest.raises(TransportError):
                _read_frame(ChunkedSocket(query[:cut]), pending=bytearray())

    def test_pipelined_requests_get_every_reply_in_order(self):
        server = fresh_server()
        requests = [encode(SessionRegisterMsg(c, SIM_INTR)) for c in (1, 2)]
        requests += [encode(SessionEndMsg(c)) for c in (1, 2)]
        expected = [fresh_server().handle_bytes(r) for r in requests[:2]]
        with ServedSocket(server) as sock:
            sock.sendall(b"".join(requests))
            pending = bytearray()
            replies = [decode(_read_frame(sock, pending=pending)) for _ in requests]
        assert [encode(r) for r in replies[:2]] == expected
        assert all(isinstance(r, EndAckMsg) for r in replies[2:])


class FlakyTransport:
    """Fails the first n requests, then delegates."""

    def __init__(self, inner, failures):
        self.inner = inner
        self.failures = failures
        self.sent_bytes = 0
        self.received_bytes = 0

    def request(self, raw):
        if self.failures > 0:
            self.failures -= 1
            raise TransportError("injected fault")
        out = self.inner.request(raw)
        self.sent_bytes += len(raw)
        self.received_bytes += len(out)
        return out

    def close(self):
        pass


class TestClientRetries:
    def make_stream(self, n=3):
        scene = generate_scene(3, [[-30, -30, -15], [60, 30, 20]], 4000)
        spec = TrajectorySpec(waypoints=[(0, 0, 1.5, 0.0), (2.0 * n, 0, 1.5, 0.0)], d_kf=2.0)
        return generate_keyframes(spec, scene, SIM_INTR, seed=1)

    def test_transient_faults_are_retried(self):
        server = fresh_server()
        flaky = FlakyTransport(InProcTransport(server), failures=2)
        cfg = ClientConfig(client_id=1, intrinsics=SIM_INTR, params=PARAMS)
        result = client_pipeline(cfg, self.make_stream(), flaky)
        assert not result.aborted
        assert result.keyframes == 4

    def test_persistent_faults_abort_with_partial_trace(self):
        server = fresh_server()
        flaky = FlakyTransport(InProcTransport(server), failures=10**6)
        cfg = ClientConfig(client_id=1, intrinsics=SIM_INTR, params=PARAMS)
        result = client_pipeline(cfg, self.make_stream(), flaky)
        assert result.aborted
        assert result.trace[-1]["event"] == "aborted"


class RecordingTransport:
    def __init__(self, inner):
        self.inner = inner
        self.log = []
        self.sent_bytes = 0
        self.received_bytes = 0

    def request(self, raw):
        out = self.inner.request(raw)
        self.log.append(out)
        self.sent_bytes += len(raw)
        self.received_bytes += len(out)
        return out

    def close(self):
        pass


class ReplayTransport:
    def __init__(self, log):
        self.log = list(log)
        self.sent_bytes = 0
        self.received_bytes = 0

    def request(self, raw):
        out = self.log.pop(0)
        self.sent_bytes += len(raw)
        self.received_bytes += len(out)
        return out

    def close(self):
        pass


class TestClientPipelineBranches:
    def keyframe(self, keyframe_id, positions):
        n = len(positions)
        return Keyframe(keyframe_id, Pose(0, 0, 0), 1.38, np.arange(1, n + 1) + 1000 * keyframe_id,
                        positions, np.zeros((n, 32), dtype=np.uint8), np.ones(n, dtype=np.int64))

    def test_expansion_verdict_drops_the_slice(self, rng):
        # Keyframe 0 fails to localize on a slice made of keyframe 1's
        # points, and the update check answers EXPANSION. Keyframe 1 must
        # then ask the overlap query again instead of localizing on that
        # slice, where it would have succeeded.
        first = self.keyframe(0, rng.uniform(-5, 5, (100, 3)))
        second = self.keyframe(1, rng.uniform(95, 105, (100, 3)))
        old_slice = SharedMapResponseMsg(points=point_records(np.arange(1, 101), second.positions))
        transport = ScriptedTransport([
            RegisterAckMsg(1),
            OverlapResponseMsg(1, 1.0, np.empty((0, 3))),  # degree 1: on the map
            old_slice, old_slice,
            UpdateStatusMsg(VERDICT_EXPANSION, np.empty(0, dtype=np.int64)),
            UploadAckMsg(1),
            OverlapResponseMsg(0, 1.0, np.empty((0, 3))),  # degree 0: fresh
            UploadAckMsg(2),
            EndAckMsg(2, 200, 0.0),
        ])
        result = client_pipeline(ClientConfig(1, SIM_INTR, params=PARAMS), [first, second],
                                 transport)
        assert not result.aborted
        assert [type(m).__name__ for m in transport.sent] == [
            "SessionRegisterMsg", "OverlapQueryMsg", "SharedMapRequestMsg",
            "SharedMapRequestMsg", "UpdateCheckMsg", "KeyframeUploadMsg", "OverlapQueryMsg",
            "KeyframeUploadMsg", "SessionEndMsg",
        ]
        assert transport.sent[6].keyframe_id == 1
        assert [ev["keyframe_id"] for ev in result.trace if ev["event"] == "localize"] == [0, 0]
        assert not any(ev["event"] == "localize_local" for ev in result.trace)
        assert result.uploads == 2


def decision_events(trace):
    return [ev for ev in trace if ev.get("event") != "aborted"]


class TestFakeServerEquivalence:
    def test_replayed_responses_reproduce_decisions(self):
        cfg = two_user_config(length=30.0, landmarks=9000)
        scene = generate_scene(cfg.scene_seed, cfg.bounds, cfg.landmark_count, cfg.clusters)
        server = MapServer(GlobalMap(np_max=cfg.params.np_max), params=cfg.params, seed=cfg.seed)

        def run(client_spec, transport):
            stream = generate_keyframes(
                client_spec.trajectory, scene, client_spec.intrinsics,
                np_max=cfg.params.np_max, noise_sigma=cfg.noise_sigma,
                seed=cfg.seed * 7919 + client_spec.client_id, params=cfg.params,
            )
            return client_pipeline(
                ClientConfig(client_id=client_spec.client_id, intrinsics=client_spec.intrinsics,
                             params=cfg.params),
                stream, transport,
            )

        run(cfg.users[0], InProcTransport(server))  # mapper populates the map
        recorder = RecordingTransport(InProcTransport(server))
        real = run(cfg.users[1], recorder)
        fake = run(cfg.users[1], ReplayTransport(recorder.log))
        assert decision_events(real.trace) == decision_events(fake.trace)
        assert real.overlap_degrees == fake.overlap_degrees


class TestTransportEquivalence:
    def test_inproc_and_tcp_traces_identical(self):
        cfg_a = two_user_config(length=40.0, landmarks=12000, transport="inproc")
        cfg_b = two_user_config(length=40.0, landmarks=12000, transport="tcp")
        ma = run_scenario(cfg_a)
        mb = run_scenario(cfg_b)
        for cid in (1, 2):
            assert ma.traces[cid] == mb.traces[cid]
        ja = json.dumps(ma.to_dict(), sort_keys=True)
        jb = json.dumps(mb.to_dict(), sort_keys=True)
        assert ja == jb

    def test_scenario_determinism_byte_identical(self):
        cfg = two_user_config(length=30.0, landmarks=9000)
        a = run_scenario(cfg)
        b = run_scenario(two_user_config(length=30.0, landmarks=9000))
        assert json.dumps(a.to_dict(include_traces=True), sort_keys=True) == json.dumps(
            b.to_dict(include_traces=True), sort_keys=True
        )


def lanes_config(n=10, mode="mapxx", concurrent=True):
    users = []
    for k in range(n):
        y = 90.0 * k
        users.append(
            UserSpec(
                client_id=k + 1,
                intrinsics=SIM_INTR,
                trajectory=TrajectorySpec(
                    waypoints=[(0.0, y, 1.5, 0.0), (24.0, y, 1.5, 0.0)], d_kf=2.0
                ),
            )
        )
    return ScenarioConfig(
        seed=6,
        scene_seed=11,
        bounds=np.array([[-25.0, -30.0, -18.0], [50.0, 90.0 * n, 22.0]]),
        landmark_count=3000 * n,
        users=users,
        params=PARAMS,
        concurrent=concurrent,
    )


class TestConcurrency:
    def test_ten_client_soak_audit_clean_and_reconciled(self):
        metrics = run_scenario(lanes_config())
        assert metrics.audit_violations == []
        total_sent = sum(u.transport_sent for u in metrics.users)
        total_recv = sum(u.transport_received for u in metrics.users)
        assert total_sent == metrics.server_ingress
        assert total_recv == metrics.server_egress
        for u in metrics.users:
            assert u.total_upload_bytes == u.transport_sent
            assert u.total_download_bytes == u.transport_received
            assert not u.aborted

    def test_concurrent_matches_sequential_replay(self):
        conc = run_scenario(lanes_config(concurrent=True))
        seq = run_scenario(lanes_config(concurrent=False))
        assert conc.server_frames == seq.server_frames
        assert conc.server_points == seq.server_points
        # Same per-user traffic despite interleaving (disjoint lanes).
        for cid in range(1, 11):
            assert conc.user(cid).total_upload_bytes == seq.user(cid).total_upload_bytes

    def test_a_failing_concurrent_client_raises_its_own_error(self, monkeypatch):
        def pipeline(cfg, stream, transport):
            if cfg.client_id == 2:
                raise RuntimeError("client 2 failed")
            return client_pipeline(cfg, stream, transport)

        closed = []

        class ClosingTransport(InProcTransport):
            def close(self):
                closed.append(self)
                super().close()

        monkeypatch.setattr(scenario, "client_pipeline", pipeline)
        monkeypatch.setattr(scenario, "InProcTransport", ClosingTransport)
        with pytest.raises(RuntimeError, match="client 2 failed"):
            run_scenario(lanes_config(n=3, concurrent=True))
        assert len(closed) == 3  # the failed client's transport too

    def test_session_isolation_on_abort(self):
        server = fresh_server()
        ok_transport = InProcTransport(server)
        bad_transport = FlakyTransport(InProcTransport(server), failures=10**6)
        scene = generate_scene(3, [[-30, -30, -15], [60, 30, 20]], 4000)

        def stream(cid):
            spec = TrajectorySpec(waypoints=[(0, 0, 1.5, 0.0), (8, 0, 1.5, 0.0)], d_kf=2.0)
            return generate_keyframes(spec, scene, SIM_INTR, seed=cid)

        bad = client_pipeline(ClientConfig(client_id=2, intrinsics=SIM_INTR, params=PARAMS),
                              stream(2), bad_transport)
        good = client_pipeline(ClientConfig(client_id=1, intrinsics=SIM_INTR, params=PARAMS),
                               stream(1), ok_transport)
        assert bad.aborted and not good.aborted
        assert server.audit() == []
        assert ok_transport.sent_bytes == good.stats.total_upload
