"""Span tracing from outside the engine, and the per-layer metrics built
from the spans.

``Tracer`` wraps each layer's public functions under the names their callers
import (``comap.runtime.assess_overlap``, ``comap.overlap.neighbor_point_rows``
and so on) and class methods on their classes. Each call records one span:
id, parent span, name, start, end, request id and an optional work count.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

import harness

# (module, attribute, span name, work count(args, result) or None).
# ``Class.method`` attributes are patched on the class.
PATCHES = [
    ("comap.runtime", "MapServer.handle_bytes", "runtime.server", None),
    ("comap.runtime", "MapServer.handle", "runtime.server.<type>", None),
    ("comap.runtime", "RWLock.acquire_read", "runtime.lock.acquire_read", None),
    ("comap.runtime", "RWLock.acquire_write", "runtime.lock.acquire_write", None),
    ("comap.runtime", "encode", "wire.encode", lambda a, r: len(r)),
    ("comap.runtime", "decode", "wire.decode", None),
    ("comap.expansion", "Keyframe.to_upload_msg", "expansion.Keyframe.to_upload_msg", None),
    ("comap.expansion", "insert_frame", "mapstore.insert_frame", lambda a, r: a[1].np_new),
    ("comap.overlap", "neighbor_point_rows", "mapstore.neighbor_point_rows",
     lambda a, r: len(r)),
    ("comap.sharing", "select_neighbors", "mapstore.select_neighbors", None),
    ("comap.expansion", "state_digest", "mapstore.state_digest", None),
    ("comap.mapstore", "load_snapshot", "mapstore.load_snapshot", None),
    ("comap.mapstore", "save_snapshot", "mapstore.save_snapshot", None),
    ("comap.spatial", "KdTree.__init__", "spatial.KdTree.build", lambda a, r: len(a[0])),
    ("comap.spatial", "KdTree.any_within", "spatial.KdTree.any_within", lambda a, r: len(r)),
    ("comap.spatial", "KdTree.query_nearest", "spatial.KdTree.query_nearest", None),
    ("comap.spatial", "KdTree.radius_search", "spatial.KdTree.radius_search", None),
    ("comap.runtime", "assess_overlap", "overlap.assess_overlap", None),
    ("comap.overlap", "classify_samples", "overlap.classify_samples", None),
    ("comap.overlap", "sample_cone", "geometry.sample_cone", None),
    ("comap.sharing", "contains_many", "geometry.contains_many", lambda a, r: len(r)),
    ("comap.runtime", "build_shared_map", "sharing.build_shared_map",
     lambda a, r: len(r.point_ids)),
    ("comap.sharing", "SharedMapSlice.to_response", "sharing.SharedMapSlice.to_response", None),
    ("comap.runtime", "get_update_status", "sharing.get_update_status", None),
    ("comap.sharing", "DeviceLoopState.localize_on_slice", "sharing.localize_on_slice",
     lambda a, r: int(r.success)),
    ("comap.sharing", "DeviceLoopState.set_slice", "sharing.set_slice", None),
    ("comap.runtime", "integrate_upload", "expansion.integrate_upload", None),
    ("comap.runtime", "partition_keyframe", "expansion.partition_keyframe", None),
    ("comap.runtime", "inject_redundancy", "expansion.inject_redundancy", None),
    ("comap.runtime", "build_response", "expansion.build_response", None),
    ("comap.runtime", "on_session_end", "expansion.on_session_end", None),
    ("comap.sim", "generate_scene", "sim.generate_scene", None),
    ("workloads", "keyframes", "sim.generate_keyframes", lambda a, r: len(r)),
    ("harness", "TimedTransport.request", "runtime.request", None),
]

_SPAN_FIELDS = ("id", "parent", "name", "start", "end", "request", "work")


class _BlockedCondition(threading.Condition):
    """A Condition whose waits are recorded as ``runtime.lock.blocked`` spans."""

    def __init__(self, tracer):
        super().__init__()
        self._traced_wait = tracer.wrap("runtime.lock.blocked", super().wait)

    def wait(self, timeout=None):
        return self._traced_wait(timeout)


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.request = 0
        return local

    def wrap(self, name: str, fn, work=None):
        tracer = self
        by_type = name.endswith("<type>")
        is_root = name in ("runtime.request", "runtime.server")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._state()
            stack = local.stack
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            opened_request = is_root and local.request == 0
            if opened_request:
                local.request = next(tracer._requests)
            stack.append(sid)
            count = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    count = work(args, result)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                span_name = (
                    name.replace("<type>", type(args[1]).__name__.removesuffix("Msg"))
                    if by_type else name
                )
                tracer.spans.append((sid, parent, span_name, t0, t1, local.request, count))
                if opened_request:
                    local.request = 0

        return traced

    def __enter__(self):
        for module_name, attr, name, work in PATCHES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            self._undo.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(name, original, work))
        # Lock waits: time only the blocked part of an acquire.
        from comap.runtime import RWLock

        original_init = RWLock.__init__
        tracer = self

        def init(lock, *args, **kwargs):
            original_init(lock, *args, **kwargs)
            if isinstance(getattr(lock, "_cond", None), threading.Condition):
                lock._cond = _BlockedCondition(tracer)

        self._undo.append((RWLock, "__init__", original_init))
        RWLock.__init__ = init
        return self

    def __exit__(self, *exc):
        for owner, leaf, original in reversed(self._undo):
            setattr(owner, leaf, original)
        self._undo.clear()

    def keep_only(self, *names: str):
        """Drop every span recorded so far except those named."""
        self.spans = [s for s in self.spans if s[2] in names]

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(_SPAN_FIELDS, span))) + "\n")


def span_table(spans) -> dict[str, dict]:
    """Per span name: calls, inclusive and self seconds, work, durations."""
    child_time = defaultdict(float)
    for sid, parent, name, t0, t1, req, work in spans:
        if parent:
            child_time[parent] += t1 - t0
    table: dict[str, dict] = {}
    for sid, parent, name, t0, t1, req, work in spans:
        row = table.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0, "durations": []}
        )
        dur = t1 - t0
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child_time[sid]
        row["work"] += work or 0
        row["durations"].append(dur)
    return table


def _blocked_per_acquire(spans, acquire: str) -> list[float]:
    ids = {s[0]: 0.0 for s in spans if s[2] == acquire}
    for sid, parent, name, t0, t1, req, work in spans:
        if name == "runtime.lock.blocked" and parent in ids:
            ids[parent] += t1 - t0
    return list(ids.values())


MESSAGE_TYPES = ("OverlapQuery", "SharedMapRequest", "KeyframeUpload", "UpdateCheck", "SessionEnd")


def layer_metrics(spans, run: harness.Run, traced_kf_per_s: float) -> dict[str, tuple]:
    """The per-layer metrics of a traced run, as name -> (value, unit).

    Counts and seconds are per pass, so runs with different pass counts
    compare directly; ``sim`` spans are per set-up, ``load_snapshot`` is
    per load (one per set-up and per pass) and ``save_snapshot``, which
    makes the run's input, is per run.
    """
    table = span_table(spans)
    n, n_setups = len(run.passes), len(run.setup_times)
    out: dict[str, tuple] = {}

    def row(name):
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0,
                                "durations": []})

    def pct(values, q):
        return float(np.percentile(values, q) * 1e3) if len(values) else 0.0

    def stats(name, *, calls=True, s=True, total=False, p50=False, p95=False, work=None,
              per=n):
        r, metric, n = row(name), name, per
        if calls:
            out[f"{metric}.calls"] = (r["calls"] / n, "count")
        if s:
            out[f"{metric}.s"] = (r["self_s"] / n, "s")
        if total:
            out[f"{metric}.total_s"] = (r["total_s"] / n, "s")
        if p50:
            out[f"{metric}.p50_ms"] = (pct(r["durations"], 50), "ms")
        if p95:
            out[f"{metric}.p95_ms"] = (pct(r["durations"], 95), "ms")
        if work:
            out[f"{metric}.{work}"] = (r["work"] / n, "count")

    # runtime
    for t in MESSAGE_TYPES:
        stats(f"runtime.server.{t}", s=False, p50=True, p95=True)
    reads = _blocked_per_acquire(spans, "runtime.lock.acquire_read")
    writes = _blocked_per_acquire(spans, "runtime.lock.acquire_write")
    out["runtime.lock.read_wait_s"] = (sum(reads) / n, "s")
    out["runtime.lock.write_wait_s"] = (sum(writes) / n, "s")
    out["runtime.lock.write_wait_p95_ms"] = (pct(writes, 95), "ms")
    server_s = row("runtime.server")["total_s"]
    rtt_s = sum(x for t in run.transports for x in t.rtts)
    out["runtime.server.total_s"] = (server_s / n, "s")
    out["runtime.transport.overhead_s"] = ((rtt_s - server_s) / n, "s")
    out["runtime.transport.retries"] = (sum(t.transport_errors for t in run.transports) / n, "count")
    out["runtime.error_replies"] = (sum(t.error_replies for t in run.transports) / n, "count")
    # wire
    stats("wire.encode")
    out["wire.bytes"] = (row("wire.encode")["work"] / n, "B")
    stats("wire.decode")
    stats("expansion.Keyframe.to_upload_msg")
    # mapstore
    stats("mapstore.insert_frame", work="points")
    stats("mapstore.neighbor_point_rows", calls=False, work="rows")
    stats("mapstore.select_neighbors", calls=False)
    stats("mapstore.state_digest", calls=False)
    loads = row("mapstore.load_snapshot")["calls"]
    stats("mapstore.load_snapshot", calls=False, per=max(loads, 1))
    stats("mapstore.save_snapshot", calls=False, per=1)
    # spatial
    stats("spatial.KdTree.build", work="points")
    stats("spatial.KdTree.any_within", work="queries")
    stats("spatial.KdTree.query_nearest")
    stats("spatial.KdTree.radius_search")
    queries = row("spatial.KdTree.any_within")["work"]
    out["spatial.build_points_per_query"] = (
        row("spatial.KdTree.build")["work"] / queries if queries else 0.0, "ratio")
    # overlap and geometry
    stats("overlap.assess_overlap", p50=True)
    stats("overlap.classify_samples", calls=False)
    stats("geometry.sample_cone", calls=False)
    stats("geometry.contains_many", work="points")
    # sharing
    stats("sharing.build_shared_map", work="points_out")
    stats("sharing.SharedMapSlice.to_response", calls=False)
    stats("sharing.get_update_status", total=True)
    stats("sharing.localize_on_slice")
    stats("sharing.set_slice", calls=False)
    loc = row("sharing.localize_on_slice")
    slices = row("sharing.set_slice")["calls"]
    out["sharing.localize.success_ratio"] = (loc["work"] / loc["calls"] if loc["calls"] else 0.0,
                                             "ratio")
    out["sharing.slice_reuse"] = ((loc["calls"] - slices) / slices if slices else 0.0, "ratio")
    # expansion
    for name in ("integrate_upload", "partition_keyframe", "inject_redundancy",
                 "build_response", "on_session_end"):
        stats(f"expansion.{name}", calls=False)
    # sim (set-up)
    stats("sim.generate_scene", calls=False, per=n_setups)
    stats("sim.generate_keyframes", calls=False, per=n_setups)
    # the traced run itself
    out["trace.kf_per_s"] = (traced_kf_per_s, "1/s")
    out["trace.spans"] = (len(spans) / n, "count")
    return out


def summary(spans, run: harness.Run) -> list[dict]:
    """Per span name, per pass: calls, self and inclusive seconds, work;
    ordered by self time."""
    n = len(run.passes)
    rows = [
        {"span": name, "calls": r["calls"] / n, "self_s": r["self_s"] / n,
         "total_s": r["total_s"] / n, "work": r["work"] / n}
        for name, r in span_table(spans).items()
    ]
    return sorted(rows, key=lambda r: -r["self_s"])
