"""The two service workloads: a closed loop against ``repro-ioschedule serve``.

The server runs as its own process (``serve`` defaults except
``--workers 1`` and the run's own ``--cache-dir``), so ``setup_s`` and
``peak_rss_mb`` measure the program, not this load generator.  The load
is one client process holding two keep-alive connections — one JSON
client and one binary client (:class:`~repro.service.aioclient.
AsyncServiceClient`, ``max_connections=1`` each) — each carrying
``CALLERS_PER_CONNECTION`` callers that wait for their reply before
sending again: 8 requests outstanding, well under the queue limit.
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import inputs
from common import (
    BenchmarkError,
    descendants,
    median,
    percentile,
    program_env,
    reap,
    vm_hwm_mb,
)

ENCODINGS = ("json", "binary")
CALLERS_PER_CONNECTION = 4
#: a reply slower than this is a failed request (well past any p99).
CLIENT_TIMEOUT_S = 60.0
#: the server's latency histogram keeps its last 4096 observations
#: (``repro.obs.metrics.Histogram``), so an epoch sends no more requests
#: than that: the server's own percentiles then cover the whole epoch.
SERVER_LATENCY_WINDOW = 4096
#: ``service_cold``: distinct requests per epoch (1000 latency samples).
COLD_REQUESTS = 1000
#: ``service_warm``: the corpus and how often an epoch asks each request.
WARM_CORPUS = 1000
WARM_TOUCHES = 4
assert max(COLD_REQUESTS, WARM_CORPUS * WARM_TOUCHES) <= SERVER_LATENCY_WINDOW
#: the nominal length of one epoch, which sets how many epochs a run makes.
EPOCH_SECONDS = {"service_cold": 5.0, "service_warm": 2.5}
#: how many requests the traced run's layer replay re-runs in-process.
REPLAY_REQUESTS = {"service_cold": 120, "service_warm": 400}


def plan(workload: str, seconds: float) -> tuple[int, float]:
    """``(epochs, share of a full epoch's requests)`` of one run.

    Both follow from ``--seconds`` alone, never from how fast the epochs
    run, so faster code gets no more repeats.  A run shorter than one
    nominal epoch (the self-test's) makes one proportionally smaller epoch.
    """
    nominal = EPOCH_SECONDS[workload]
    return max(1, round(seconds / nominal)), min(1.0, seconds / nominal)


# --------------------------------------------------------------------- #
# the server process
# --------------------------------------------------------------------- #


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``serve`` process and its worker pool."""

    def __init__(self, work_dir: Path, cache_dir: Path):
        self.work_dir = work_dir
        self.cache_dir = cache_dir
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self._children: list[int] = []

    def start(self) -> float:
        """Launch and wait for ``/healthz``; returns the seconds that took."""
        for _attempt in range(3):
            self.port = _free_port()
            argv = [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", str(self.port),
                "--workers", "1",
                "--cache-dir", str(self.cache_dir),
            ]
            log = open(self.work_dir / "server.log", "ab")
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(
                argv, stdout=log, stderr=log, env=program_env(), cwd=self.work_dir
            )
            log.close()
            while self.proc.poll() is None:
                if self._healthy():
                    elapsed = time.perf_counter() - t0
                    self._children = descendants(self.proc.pid)
                    return elapsed
                if time.perf_counter() - t0 > 60:
                    break
                time.sleep(0.005)
            self.stop()  # port taken or startup failed: try another port
        raise BenchmarkError(f"server did not start; see {self.work_dir / 'server.log'}")

    def _healthy(self) -> bool:
        try:
            return json.loads(self.get("/healthz")).get("ok") is True
        except (OSError, ValueError, http.client.HTTPException):
            return False

    def get(self, path: str) -> bytes:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            return conn.getresponse().read()
        finally:
            conn.close()

    def snapshot(self) -> dict[str, Any]:
        """The JSON ``/metrics`` body."""
        return json.loads(self.get("/metrics"))

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server plus every process it started."""
        assert self.proc is not None
        pids = [self.proc.pid, *descendants(self.proc.pid)]
        return sum(vm_hwm_mb(pid) for pid in pids)

    def stop(self) -> None:
        if self.proc is None:
            return
        children = sorted(set(self._children) | set(descendants(self.proc.pid)))
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        reap(children)
        self.proc = None


# --------------------------------------------------------------------- #
# the closed loop
# --------------------------------------------------------------------- #


@dataclass
class Reply:
    index: int
    encoding: str
    seconds: float
    #: the error code of a refused or lost request, ``None`` on success
    error: str | None
    #: what the workload keeps of the result (see ``closed_loop``)
    value: Any = None
    #: the server's stage breakdown of a traced request
    timings: dict[str, float] | None = None


async def _closed_loop(
    port: int,
    payloads: list[dict],
    queues: dict[str, Iterator[int]],
    inspect: Callable[[int, dict[str, Any]], Any],
    trace_prefix: str | None,
) -> tuple[list[Reply], float]:
    from repro.service.aioclient import AsyncServiceClient
    from repro.service.client import ServiceError

    replies: list[Reply] = []
    clients = {
        enc: AsyncServiceClient(
            port=port, wire=enc, max_connections=1, timeout=CLIENT_TIMEOUT_S,
            retries=0,
        )
        for enc in ENCODINGS
    }

    async def caller(enc: str) -> None:
        client = clients[enc]
        for index in queues[enc]:
            payload = payloads[index]
            if trace_prefix is not None:
                payload = dict(payload, trace=f"{trace_prefix}{enc[0]}{len(replies)}")
            t0 = time.perf_counter()
            try:
                envelope = await client.submit(payload)
            except ServiceError as exc:
                replies.append(Reply(index, enc, time.perf_counter() - t0, exc.code))
                continue
            seconds = time.perf_counter() - t0
            replies.append(Reply(
                index, enc, seconds, None,
                inspect(index, envelope["result"]), envelope.get("timings"),
            ))

    start = time.perf_counter()
    try:
        await asyncio.gather(
            *(caller(enc) for enc in ENCODINGS for _ in range(CALLERS_PER_CONNECTION))
        )
        elapsed = time.perf_counter() - start
    finally:
        for client in clients.values():
            await client.close()
    return replies, elapsed


def closed_loop(port, payloads, queues, inspect, trace_prefix=None):
    """Send every queued request over the two connections.

    Returns ``(replies, elapsed)``.  ``inspect(index, result)`` runs on
    each answer as it arrives and its value is all a reply keeps of the
    result, so a long run holds no response bodies.  The load generator's
    cyclic garbage collector is paused while the loop runs (its pauses
    would read as latency).
    """
    gc.disable()
    try:
        return asyncio.run(
            _closed_loop(port, payloads, queues, inspect, trace_prefix)
        )
    finally:
        gc.enable()
        gc.collect()


# --------------------------------------------------------------------- #
# arithmetic on the measurements (pure; the self-test pins it)
# --------------------------------------------------------------------- #


def client_latencies(replies: list[Reply]) -> dict[str, float]:
    """Send-to-reply percentiles in ms, overall and per encoding."""
    out: dict[str, float] = {}
    groups = {"": replies}
    groups.update({f"_{enc}": [r for r in replies if r.encoding == enc] for enc in ENCODINGS})
    for suffix, group in groups.items():
        ms = [r.seconds * 1000.0 for r in group if r.error is None]
        out[f"latency_p50_ms{suffix}"] = percentile(ms, 0.50)
        out[f"latency_p99_ms{suffix}"] = percentile(ms, 0.99)
    return out


def epoch_latencies(phases: list["Phase"]) -> dict[str, float]:
    """Each epoch's send-to-reply p50 and p99, then the median over the epochs.

    Every reply of every epoch counts, so a tail that most epochs show
    moves the figure; one epoch slowed by other load on the machine does not.
    """
    per_epoch = [client_latencies(phase.replies) for phase in phases]
    return {
        name: statistics.median(epoch[name] for epoch in per_epoch)
        for name in ("latency_p50_ms", "latency_p99_ms")
    }


def counter_deltas(
    before: dict[str, Any], after: dict[str, Any], *, client_p50_ms: float
) -> dict[str, float]:
    """The ``/metrics`` per-layer numbers of one timed phase."""
    rb, ra = before["requests"], after["requests"]
    cb, ca = before["cache"], after["cache"]

    def req(name: str) -> int:
        return ra[name] - rb[name]

    def cache(name: str) -> int:
        return ca[name] - cb[name]

    # The server's latency histogram holds only its latest observations,
    # one per completed request: its percentiles describe the phase only
    # when the window holds exactly the phase's requests.
    window = after["latency_ms"]
    if window["count"] != req("completed"):
        raise BenchmarkError(
            f"the server's latency window holds {window['count']} requests but "
            f"the phase completed {req('completed')}: its percentiles do not "
            "cover the phase"
        )
    requests = req("received")
    batches = after["batches"] - before["batches"]
    memo, disk = cache("memo_hits"), cache("disk_hits")
    rx = after["wire_bytes"]["rx"] - before["wire_bytes"]["rx"]
    tx = after["wire_bytes"]["tx"] - before["wire_bytes"]["tx"]
    return {
        "service.server.requests": requests,
        "service.server.errors": req("errors"),
        "service.server.rejected": req("rejected"),
        "service.server.timeouts": req("timeouts"),
        "service.server.deduped": req("deduped_inflight"),
        "service.server.latency_p50_ms": window["p50"],
        "service.server.latency_p99_ms": window["p99"],
        "service.aioclient.overhead_p50_ms": client_p50_ms - window["p50"],
        "service.pool.batches": batches,
        "service.pool.batch_size_mean": req("computed") / batches if batches else 0.0,
        "datasets.store.memo_hits": memo,
        "datasets.store.disk_hits": disk,
        "datasets.store.misses": cache("misses"),
        "datasets.store.disk_share": disk / (memo + disk) if memo + disk else 0.0,
        "service.wire.rx_bytes_per_req": rx / requests if requests else 0.0,
        "service.wire.tx_bytes_per_req": tx / requests if requests else 0.0,
    }


def stage_metrics(replies: list[Reply]) -> dict[str, float]:
    """p50/p99 (ms) of each server stage, from traced envelopes."""
    samples: dict[str, list[float]] = {}
    for reply in replies:
        for stage, seconds in (reply.timings or {}).items():
            name = f"decode_ms.{reply.encoding}" if stage == "decode" else f"{stage}_ms"
            samples.setdefault(name, []).append(seconds * 1000.0)
    out: dict[str, float] = {}
    for name in ("decode_ms.json", "decode_ms.binary", "cache_ms", "queue_ms",
                 "solve_ms", "encode_ms"):
        layer = "api.execution" if name == "solve_ms" else "service.server"
        values = samples.get(name, [])
        out[f"{layer}.{name}.p50"] = percentile(values, 0.50)
        out[f"{layer}.{name}.p99"] = percentile(values, 0.99)
    return out


# --------------------------------------------------------------------- #
# output checks (a wrong answer is a failed request)
# --------------------------------------------------------------------- #


def solve_digest(_index: int, result: dict[str, Any]) -> tuple[Any, int]:
    """What ``service_cold`` keeps of an answer: ``io_volume`` and a schedule hash."""
    return result.get("io_volume"), hash(tuple(result.get("schedule") or ()))


def offline_answers(payloads: list[dict]) -> dict[int, tuple[Any, int]]:
    """:func:`solve_digest` of each request's ``LocalBackend`` answer."""
    from repro.api import LocalBackend, parse_request

    backend = LocalBackend(cache=None)
    out = {}
    for index, payload in enumerate(payloads):
        outcome = backend.run([parse_request(payload)])[0]
        if outcome.ok:
            out[index] = solve_digest(index, outcome.result)
    return out


def check_cold(replies: list[Reply], offline: dict[int, tuple[Any, int]]) -> int:
    """Failed requests: errors, plus answers that differ from the offline one."""
    return sum(
        1 for r in replies
        if r.error is not None or offline.get(r.index, ()) != r.value
    )


def check_warm(replies: list[Reply]) -> int:
    """Failed requests: errors, plus results unequal to the fill's.

    ``value`` is the comparison made as each answer arrived: the decoded
    result equals the one the fill phase got for the same request, so
    its canonical JSON bytes are equal too.
    """
    return sum(1 for r in replies if r.error is not None or r.value is not True)


# --------------------------------------------------------------------- #
# the workloads
# --------------------------------------------------------------------- #


def _split_by_parity(count: int) -> dict[str, Iterator[int]]:
    return {
        "json": iter(range(0, count, 2)),
        "binary": iter(range(1, count, 2)),
    }


def _warm_queues(seed: int, corpus: int, epoch: int) -> dict[str, Iterator[int]]:
    touches = inputs.warm_touches(seed, corpus, WARM_TOUCHES, epoch)
    return {enc: iter(touches[enc]) for enc in ENCODINGS}


@dataclass
class Phase:
    replies: list[Reply]
    elapsed: float
    #: the server's ``/metrics`` before and after the phase
    snapshots: tuple[dict[str, Any], dict[str, Any]] | None = None

    @property
    def served(self) -> int:
        return sum(1 for r in self.replies if r.error is None)

    @property
    def rate(self) -> float:
        """Answers per second of the phase."""
        return self.served / self.elapsed


def _phase(server: Server, payloads, queues, inspect, trace_prefix=None) -> Phase:
    """Send every queued request once (the queues are finite) and time it."""
    before = server.snapshot()
    replies, elapsed = closed_loop(server.port, payloads, queues, inspect, trace_prefix)
    return Phase(replies, elapsed, (before, server.snapshot()))


class _Servers:
    """Every server a run starts; each untraced launch is a ``setup_s`` sample."""

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self.setups: list[float] = []
        self._all: list[Server] = []

    def launch(self, cache_dir: Path, *, sample: bool = True) -> Server:
        server = Server(self.work_dir, cache_dir)
        self._all.append(server)
        seconds = server.start()
        if sample:
            self.setups.append(seconds)
        return server

    def stop_all(self) -> None:
        for server in self._all:
            server.stop()


def _epochs(servers: _Servers, payloads, queues, epochs: int, inspect, *,
            fresh_cache: bool, trace_prefix: str | None = None):
    """``epochs`` epochs of the same work.

    Each epoch starts a server — over an empty cache directory of its
    own (``fresh_cache``, every request a miss) or over the run's
    persistent one — and sends every request ``queues(epoch)`` yields.
    Returns the epochs' phases and the peak RSS.
    """
    phases: list[Phase] = []
    rss = 0.0
    for epoch in range(epochs):
        cache_dir = servers.work_dir / (
            f"cache-{len(servers._all)}" if fresh_cache else "cache"
        )
        server = servers.launch(cache_dir, sample=trace_prefix is None)
        phases.append(_phase(server, payloads, queues(epoch), inspect, trace_prefix))
        rss = max(rss, server.peak_rss_mb())
        server.stop()
        if fresh_cache:
            shutil.rmtree(cache_dir, ignore_errors=True)
    return phases, rss


@dataclass
class _Measured:
    #: the untraced epochs
    phases: list[Phase]
    peak_rss_mb: float
    #: the traced epochs (traced runs only)
    traced: list[Phase]
    failed: int
    attempted: int
    replay_payloads: list[dict]

    @property
    def main(self) -> Phase:
        """The fastest untraced epoch: throughput and ``/metrics`` counters.

        Every epoch does the same work, so a slower one only measures
        other load on the machine.
        """
        return max(self.phases, key=lambda phase: phase.rate)


def _run_cold(seed: int, seconds: float, trace: bool, servers: _Servers) -> _Measured:
    epochs, share = plan("service_cold", seconds)
    payloads = inputs.cold_requests(seed, max(16, round(COLD_REQUESTS * share)))

    def run(trace_prefix=None):
        return _epochs(servers, payloads, lambda _epoch: _split_by_parity(len(payloads)),
                       epochs, solve_digest, fresh_cache=True, trace_prefix=trace_prefix)

    phases, rss = run()
    traced = run("t")[0] if trace else []
    offline = offline_answers(payloads)
    replies = [r for phase in phases + traced for r in phase.replies]
    return _Measured(
        phases, rss, traced, check_cold(replies, offline), len(replies), payloads
    )


def _run_warm(seed: int, seconds: float, trace: bool, servers: _Servers) -> _Measured:
    epochs, share = plan("service_warm", seconds)
    payloads = inputs.warm_corpus(seed, max(16, round(WARM_CORPUS * share)))
    server = servers.launch(servers.work_dir / "cache")
    fill = _phase(server, payloads, _split_by_parity(len(payloads)),
                  lambda _index, result: result)
    server.stop()
    fill_results = {r.index: r.value for r in fill.replies if r.error is None}
    if len(fill_results) != len(payloads):
        raise BenchmarkError(f"cache fill answered {len(fill_results)} of {len(payloads)}")

    def same_as_fill(index: int, result: dict[str, Any]) -> bool:
        return result == fill_results[index]

    def run(trace_prefix=None):
        return _epochs(servers, payloads,
                       lambda epoch: _warm_queues(seed, len(payloads), epoch),
                       epochs, same_as_fill, fresh_cache=False, trace_prefix=trace_prefix)

    phases, rss = run()
    traced = run("t")[0] if trace else []
    replies = [r for phase in phases + traced for r in phase.replies]
    return _Measured(phases, rss, traced, check_warm(replies), len(replies), payloads)


def run_service(
    workload: str, seed: int, seconds: float, trace: bool, work_dir: Path
) -> dict[str, Any]:
    """One run of ``service_cold`` or ``service_warm``; see ``run.py``."""
    servers = _Servers(work_dir)
    try:
        run = (_run_cold if workload == "service_cold" else _run_warm)(
            seed, seconds, trace, servers
        )
    finally:
        servers.stop_all()

    main, traced = run.main, run.traced
    # per encoding: pooled over every untraced reply (1000 or more each)
    by_encoding = {
        name: value
        for name, value in client_latencies(
            [r for phase in run.phases for r in phase.replies]
        ).items()
        if name.endswith(ENCODINGS)
    }
    latencies = epoch_latencies(run.phases)
    result: dict[str, Any] = {
        "attempted": run.attempted,
        "failed": run.failed,
        "end_to_end": {
            "trees_per_s": main.rate,
            "latency_p50_ms": latencies["latency_p50_ms"],
            "latency_p99_ms": latencies["latency_p99_ms"],
            "setup_s": median(servers.setups),
            "peak_rss_mb": run.peak_rss_mb,
        },
        "table": {
            **by_encoding,
            "epochs": len(run.phases),
            "requests_per_epoch": len(main.replies),
            "setup_samples_s": servers.setups,
        },
    }
    if trace:
        import replay

        assert main.snapshots is not None
        before, after = main.snapshots
        per_layer = counter_deltas(
            before, after, client_p50_ms=client_latencies(main.replies)["latency_p50_ms"]
        )
        per_layer.update(stage_metrics([r for phase in traced for r in phase.replies]))
        per_layer.update({
            f"service.aioclient.{name}": value for name, value in by_encoding.items()
        })
        per_layer.update(replay.replay(
            run.replay_payloads[:REPLAY_REQUESTS[workload]], work_dir / "replay-cache"
        ))
        per_layer["obs.tracing_overhead"] = main.rate / max(p.rate for p in traced)
        result["per_layer"] = per_layer
    return result
