"""Closed-loop pass runner, end-to-end metrics and the correctness gate."""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from comap import wire
from comap.mapstore import audit
from comap.runtime import TransportError, client_pipeline

from workloads import Setup


class TimedTransport:
    """Wraps the transport handed to ``client_pipeline``: times each request
    from frame handed over to reply returned, and counts failures."""

    def __init__(self, inner):
        self.inner = inner
        self.rtts: list[float] = []
        self.error_replies = 0
        self.transport_errors = 0
        self.sent_bytes = 0
        self.received_bytes = 0

    @property
    def attempted(self) -> int:
        return len(self.rtts) + self.transport_errors

    @property
    def failed(self) -> int:
        return self.error_replies + self.transport_errors

    def request(self, raw: bytes) -> bytes:
        t0 = time.perf_counter()
        try:
            reply = self.inner.request(raw)
        except TransportError:
            self.transport_errors += 1
            raise
        self.rtts.append(time.perf_counter() - t0)
        if reply[3] == wire.T_ERROR:
            self.error_replies += 1
        return reply

    def close(self):
        """Close the inner transport and keep only its byte counts, so that
        a finished pass holds no reference to its server and map."""
        self.inner.close()
        self.sent_bytes = self.inner.sent_bytes
        self.received_bytes = self.inner.received_bytes
        self.inner = None


@dataclass
class PassResult:
    wall_s: float
    results: list  # ClientResult per client, in setup order
    transports: list[TimedTransport]
    problems: list[str]
    digest: str
    user_bytes: dict

    @property
    def keyframes(self) -> int:
        return sum(r.keyframes for r in self.results)


def run_pass(workload, setup: Setup) -> PassResult:
    """Drive every client of ``setup`` to the end of its session, then check."""
    transports = [TimedTransport(setup.transport()) for _ in setup.clients]
    jobs = list(zip(setup.clients, transports))

    def drive(job):
        client, transport = job
        return client_pipeline(client.config, client.keyframes, transport)

    try:
        t0 = time.perf_counter()
        if setup.concurrent:
            with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
                results = list(pool.map(drive, jobs))
        else:
            results = [drive(job) for job in jobs]
        wall = time.perf_counter() - t0
    finally:
        for t in transports:
            t.close()
        setup.close()
    problems = check_pass(workload, setup, results, transports)
    digest, user_bytes = decision_digest(workload, results)
    return PassResult(wall, results, transports, problems, digest, user_bytes)


def check_pass(workload, setup: Setup, results, transports) -> list[str]:
    """Invariants every pass must meet, at any seed."""
    server = setup.server
    problems = [f"audit: {v}" for v in audit(server.map)[:5]]
    sent = sum(t.sent_bytes for t in transports)
    received = sum(t.received_bytes for t in transports)
    if sent != server.ingress_bytes or received != server.egress_bytes:
        problems.append(
            f"transport bytes {sent}/{received} != server ingress/egress "
            f"{server.ingress_bytes}/{server.egress_bytes}"
        )
    for r in results:
        if r.aborted:
            problems.append(f"client {r.client_id} aborted: {r.trace[-1]}")
    problems += workload.invariants(setup, results)
    return problems


# Fields that depend on how concurrent sessions interleave.
_INTERLEAVED = {"upload": ("frame_id",), "session_end": ("frames", "points")}


def decision_digest(workload, results) -> tuple[str, dict]:
    """Digest of every client's decision trace, and its byte counters."""
    h = hashlib.sha256()
    user_bytes = {}
    for r in results:
        trace = r.trace
        if workload.name == "lanes2-tcp":
            trace = [
                {k: v for k, v in ev.items() if k not in _INTERLEAVED.get(ev["event"], ())}
                for ev in trace
            ]
        h.update(json.dumps([r.client_id, trace, r.update_events], sort_keys=True).encode())
        user_bytes[str(r.client_id)] = {
            "upload": dict(sorted(r.stats.upload_bytes.items())),
            "download": dict(sorted(r.stats.download_bytes.items())),
        }
    return h.hexdigest(), user_bytes


@dataclass
class Run:
    """Every setup and pass of one benchmark run."""

    setup_times: list[float] = field(default_factory=list)
    passes: list[PassResult] = field(default_factory=list)

    @property
    def transports(self) -> list[TimedTransport]:
        return [t for p in self.passes for t in p.transports]

    @property
    def attempted(self) -> int:
        return sum(t.attempted for t in self.transports)

    @property
    def failed(self) -> int:
        return sum(t.failed for t in self.transports)


MIN_SETUPS = 3


def measure(workload, seed: int, seconds: float, workdir, after_prepare=None) -> Run:
    """Set up and run passes until ``seconds`` of pass time is measured.

    Full set-up runs ``MIN_SETUPS`` times so that its median is robust;
    set-ups beyond the passes needed are discarded unused. Later passes
    reuse the last set-up's keyframe streams and get only a fresh server,
    so the run's time goes to passes. ``after_prepare`` is called once the
    run's untimed input exists.
    """
    prepared = workload.prepare(seed, workdir)
    if after_prepare is not None:
        after_prepare()
    run = Run()
    clients = None
    try:
        while len(run.setup_times) < MIN_SETUPS or not run.passes or (
            sum(p.wall_s for p in run.passes) < seconds
        ):
            if len(run.setup_times) < MIN_SETUPS:
                t0 = time.perf_counter()
                setup = workload.setup(seed, prepared)
                run.setup_times.append(time.perf_counter() - t0)
                clients = setup.clients
            else:
                setup = workload.setup(seed, prepared, clients)
            if run.passes and sum(p.wall_s for p in run.passes) >= seconds:
                setup.close()
                continue
            run.passes.append(run_pass(workload, setup))
    finally:
        if prepared is not None:
            prepared.unlink(missing_ok=True)
    return run


def end_to_end(run: Run) -> dict[str, float]:
    keyframes = sum(p.keyframes for p in run.passes)
    rtts = np.array([x for t in run.transports for x in t.rtts])
    results = [r for p in run.passes for r in p.results]
    return {
        "kf_per_s": statistics.median(p.keyframes / p.wall_s for p in run.passes),
        "rtt_p50_ms": float(np.percentile(rtts, 50) * 1e3),
        "rtt_p95_ms": float(np.percentile(rtts, 95) * 1e3),
        "up_bytes_per_kf": sum(r.stats.total_upload for r in results) / keyframes,
        "down_bytes_per_kf": sum(r.stats.total_download for r in results) / keyframes,
        "setup_s": statistics.median(run.setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": run.failed / max(run.attempted, 1),
    }


UNITS = {
    "kf_per_s": "1/s",
    "rtt_p50_ms": "ms",
    "rtt_p95_ms": "ms",
    "up_bytes_per_kf": "B",
    "down_bytes_per_kf": "B",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}


def gate(workload, run: Run, expected: dict | None) -> list[str]:
    """All correctness checks of a run; empty when it passed.

    Every pass must meet the invariants and repeat the first pass's
    decisions exactly. At the recorded seed, decisions and per-user bytes
    must also equal the recorded values.
    """
    problems = []
    first = run.passes[0]
    for i, p in enumerate(run.passes):
        problems += [f"pass {i}: {msg}" for msg in p.problems]
        if p.digest != first.digest or p.user_bytes != first.user_bytes:
            problems.append(f"pass {i}: decisions differ from pass 0 at the same seed")
    if expected is not None:
        if first.user_bytes != expected["user_bytes"]:
            problems.append("per-user byte counters differ from the recorded values")
        if first.digest != expected["decisions"]:
            problems.append(
                f"decision digest {first.digest[:12]} != recorded {expected['decisions'][:12]}"
            )
    if run.failed:
        problems.append(f"{run.failed} of {run.attempted} requests failed")
    return problems
