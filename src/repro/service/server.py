"""The asyncio scheduling service: JSON over HTTP, stdlib only.

Request lifecycle::

    POST /v1/submit ── validate ── dedup ──► admission queue ──► dispatcher
                          │          │                               │
                       400 + code    │ identical in-flight?          │ ready set
                                     │   await its future            ▼ (≤ max size)
                                     │ result cache hit?          WorkerPool
                                     │   answer immediately      (processes)
                                     └ queue full? 429               │
                                                     cache.put ◄─────┘
                                                     resolve futures

Four mechanisms do the heavy lifting:

* **Micro-batching** — the moment a worker is free, the dispatcher
  ships it everything already waiting in the admission queue (up to
  ``max_batch``) in one executor call; it never waits for more to
  arrive.  While every worker is busy, requests queue up, so batches
  grow exactly when load is high and pickle/IPC overhead needs
  amortising — and an idle service dispatches a lone request at once.
* **Cache-backed dedup** — every request is content-addressed (see
  :mod:`repro.service.protocol`); an identical *in-flight* request
  coalesces onto the same future, and an identical *completed* request
  is served from the shared :class:`~repro.datasets.store.ResultCache`
  without touching a worker.  The cache directory can be the same one
  ``repro-ioschedule report`` uses.
* **Backpressure** — admission is a bounded queue; when it is full the
  server answers ``429 queue_full`` immediately instead of letting
  latency grow without bound, and per-request deadlines return
  ``504 timeout`` (the computation itself keeps running and still
  populates the cache for the retry).
* **Write-back off the dispatch slot** — a batch frees its dispatch slot
  as soon as the pool returns, so the workers start the next batch
  while this one's entries are written to the cache concurrently; each
  request is answered once *its own* entry is on disk.  At most
  ``pool.concurrency`` batches write back at once, so a slow disk
  still backs up into the admission queue.

Endpoints: ``POST /v1/submit``, ``GET /healthz``, ``GET /metrics``.

Requests and envelopes are the typed model of :mod:`repro.api`: the
server is one of three interchangeable backends (see
:class:`repro.api.backends.RemoteBackend` for the client side), which
is why its cache entries are warm hits for local and embedded-pool
execution too.

Two content types share ``/v1/submit`` (see :mod:`repro.service.wire`):
JSON, and the length-framed binary protocol negotiated per request via
``Content-Type`` / ``Accept``.  Either way a request is validated
once, here — binary submissions straight off their int64 columns, with
no JSON parse — and the typed request object is what the queue and the
workers carry on.
Connections are HTTP/1.1 keep-alive with request pipelining: responses
are written strictly in request order by a per-connection writer, while
up to ``max_pipeline`` requests from the same connection are in flight
at once.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..api.requests import ENGINE_VERSION, Request
from ..datasets.store import ResultCache
from ..obs.metrics import Histogram, MetricsRegistry
from .pool import WorkerPool
from .protocol import (
    HTTP_STATUS,
    PROTOCOL_VERSION,
    ProtocolError,
    error_envelope,
    ok_envelope,
    parse_request,
)
from .wire import (
    JSON_CONTENT_TYPE,
    WIRE_CONTENT_TYPE,
    WIRE_VERSION,
    accepts_wire,
    encode_response_frame,
    media_type,
    request_from_frame,
)

__all__ = [
    "ServerConfig",
    "ServiceMetrics",
    "ServiceServer",
    "ServerThread",
    "running_server",
]

#: an admission-queue entry: (request, enqueue perf_counter, timings|None)
_Entry = tuple[Request, float, dict[str, float] | None]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    415: "Unsupported Media Type",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    504: "Gateway Timeout",
}


@dataclass(frozen=True)
class ServerConfig:
    """Everything the service needs to run; every field has a sane default."""

    host: str = "127.0.0.1"
    port: int = 8177  # 0 = ephemeral (the bound port lands in ServiceServer.port)
    workers: int = 2  # worker processes; 0 = in-process threads (tests)
    inline_threads: int = 1  # concurrency when workers == 0
    queue_limit: int = 64  # admission-queue capacity (backpressure bound)
    max_batch: int = 16  # requests per micro-batch
    request_timeout: float = 60.0  # default per-request deadline (seconds)
    max_body_bytes: int = 16 * 1024 * 1024
    cache_dir: str | None = None  # None = no result cache
    #: ship micro-batch trees to process workers via shared memory (the
    #: forest transport); falls back to pickling automatically where
    #: shared memory is unavailable or the batch is too small to
    #: amortise a segment, and is a no-op in inline mode.
    shm_transport: bool = True
    shm_min_nodes: int = -1  # -1 = the pool's default floor
    #: how long an idle keep-alive connection is held open between
    #: requests; <= 0 restores the original one-request-per-connection
    #: behaviour (every response carries ``Connection: close``).
    keepalive_timeout: float = 75.0
    #: per-connection pipelining bound: how many requests from one
    #: connection may be in flight at once (responses always come back
    #: in request order regardless).
    max_pipeline: int = 32
    #: bounded in-memory LRU in front of the result cache: the hottest
    #: entries answer without touching the executor or the disk.  Only
    #: active when a result cache is configured; 0 disables it.
    memo_entries: int = 4096
    #: serve the live ops dashboard (``GET /dash``) and track a bounded
    #: ring of recent requests for its panels; off by default.
    dashboard: bool = False
    #: count requests into the metrics registry.  On by default; turning
    #: it off makes every counter update a no-op — the baseline the
    #: tracing-overhead benchmark gate compares against.
    observability: bool = True


class ServiceMetrics:
    """The service's view over one :class:`~repro.obs.MetricsRegistry`.

    Historically a bag of plain counters; now a facade that owns the
    hot-path label resolution (child counters are resolved once, here)
    and renders the registry into the legacy JSON ``/metrics`` shape.
    The historical read attributes (``received``, ``computed``,
    ``cache_hits``, ...) remain as properties, and latency percentiles
    use the registry histogram's exact legacy formula, so existing
    scrapers and tests see identical numbers.

    With ``enabled=False`` every increment is a no-op — the baseline
    the tracing-overhead benchmark compares the default against.
    """

    def __init__(
        self, registry: MetricsRegistry | None = None, *, enabled: bool = True
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.enabled = enabled
        self.started_at = self.registry.started_at  # wall clock, display only
        r = self.registry
        self._requests = r.counter(
            "requests_total", "requests received, by submit encoding"
        )
        self._req_json = self._requests.labels(encoding="json")
        self._req_binary = self._requests.labels(encoding="binary")
        self._by_strategy = r.counter(
            "requests_by_strategy_total", "admitted requests by algorithm"
        )
        self._completed = r.counter(
            "requests_completed_total", "requests answered 200"
        )
        self._computed = r.counter(
            "requests_computed_total", "requests that reached a worker"
        )
        self._batches = r.counter("batches_total", "micro-batches dispatched")
        self._rejected = r.counter(
            "requests_rejected_total", "429 queue_full rejections"
        )
        self._timeouts = r.counter(
            "requests_timeout_total", "504 per-request deadline expiries"
        )
        self._errors = r.counter(
            "requests_error_total", "validation + execution + internal errors"
        )
        self._deduped = r.counter(
            "requests_deduped_total", "requests coalesced onto in-flight twins"
        )
        cache_hits = r.counter("cache_hits_total", "result-cache hits by tier")
        self._memo_hits = cache_hits.labels(tier="memo")
        self._disk_hits = cache_hits.labels(tier="disk")
        self._cache_misses = r.counter(
            "cache_misses_total", "result-cache misses"
        )
        self._cache_write_errors = r.counter(
            "cache_write_errors_total", "result-cache writes that failed"
        )
        self._latency = r.histogram(
            "solve_seconds", "request latency in seconds (bounded window)"
        )
        wire_bytes = r.counter(
            "wire_bytes_total", "HTTP payload bytes, by direction"
        )
        self._rx_bytes = wire_bytes.labels(direction="rx")
        self._tx_bytes = wire_bytes.labels(direction="tx")

    # -- hot-path increments (each one guarded no-op when disabled) ---- #

    def inc_received(self, *, binary: bool) -> None:
        if self.enabled:
            (self._req_binary if binary else self._req_json).inc()

    def record_strategy(self, name: str) -> None:
        if self.enabled:
            self._by_strategy.labels(strategy=name).inc()

    def inc_completed(self) -> None:
        if self.enabled:
            self._completed.inc()

    def inc_computed(self, amount: int = 1) -> None:
        if self.enabled:
            self._computed.inc(amount)

    def inc_batches(self) -> None:
        if self.enabled:
            self._batches.inc()

    def inc_rejected(self) -> None:
        if self.enabled:
            self._rejected.inc()

    def inc_timeouts(self) -> None:
        if self.enabled:
            self._timeouts.inc()

    def inc_errors(self) -> None:
        if self.enabled:
            self._errors.inc()

    def inc_deduped(self) -> None:
        if self.enabled:
            self._deduped.inc()

    def inc_memo_hit(self) -> None:
        if self.enabled:
            self._memo_hits.inc()

    def inc_cache_write_errors(self) -> None:
        if self.enabled:
            self._cache_write_errors.inc()

    def record_latency(self, seconds: float) -> None:
        if self.enabled:
            self._latency.observe(seconds)

    def add_rx(self, nbytes: int) -> None:
        if self.enabled and nbytes:
            self._rx_bytes.inc(nbytes)

    def add_tx(self, nbytes: int) -> None:
        if self.enabled:
            self._tx_bytes.inc(nbytes)

    # -- the historical read attributes, now derived ------------------- #

    @property
    def received(self) -> int:
        return self._req_json._value + self._req_binary._value

    @property
    def wire_requests(self) -> int:
        return self._req_binary._value

    @property
    def completed(self) -> int:
        return self._completed.value

    @property
    def computed(self) -> int:
        return self._computed.value

    @property
    def batches(self) -> int:
        return self._batches.value

    @property
    def rejected(self) -> int:
        return self._rejected.value

    @property
    def timeouts(self) -> int:
        return self._timeouts.value

    @property
    def errors(self) -> int:
        return self._errors.value

    @property
    def deduped_inflight(self) -> int:
        return self._deduped.value

    @property
    def cache_hits(self) -> int:
        return self._memo_hits._value + self._disk_hits._value

    @property
    def cache_misses(self) -> int:
        return self._cache_misses.value

    #: the historical percentile formula, shared with the histogram
    _percentile = staticmethod(Histogram.percentile)

    def snapshot(self, *, queue_depth: int, inflight: int) -> dict[str, Any]:
        return {
            "protocol": PROTOCOL_VERSION,
            # monotonic: wall clock would jump (or go negative) on an
            # NTP step; the recent-ring ``ts`` stays wall-clock on
            # purpose (it is correlated with external logs)
            "uptime_seconds": self.registry.uptime(),
            "queue_depth": queue_depth,
            "inflight": inflight,
            "requests": {
                "received": self.received,
                "completed": self.completed,
                "computed": self.computed,
                "rejected": self.rejected,
                "timeouts": self.timeouts,
                "errors": self.errors,
                "wire": self.wire_requests,
                "deduped_inflight": self.deduped_inflight,
                "by_encoding": {
                    "json": self._req_json._value,
                    "binary": self._req_binary._value,
                },
                "by_strategy": self._by_strategy.child_values(),
            },
            "batches": self.batches,
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "memo_hits": self._memo_hits._value,
                "disk_hits": self._disk_hits._value,
                "write_errors": self._cache_write_errors.value,
            },
            "latency_ms": self._latency.summary(scale=1000.0),
            "wire_bytes": {
                "rx": self._rx_bytes._value,
                "tx": self._tx_bytes._value,
            },
        }


class ServiceServer:
    """The service itself; see the module docstring for the data flow.

    Use :meth:`run` from the CLI (blocking), or ``await start()`` /
    ``await stop()`` from an existing event loop (what
    :class:`ServerThread` and the tests do).
    """

    def __init__(
        self,
        config: ServerConfig = ServerConfig(),
        *,
        cache: ResultCache | None = None,
        pool: WorkerPool | None = None,
    ):
        self.config = config
        self.cache = cache if cache is not None else (
            ResultCache(config.cache_dir) if config.cache_dir else None
        )
        # Every server owns its registry: scrapes and tests see exactly
        # this instance's traffic, never another server's in the same
        # process (the library surfaces share the module-global one).
        # A pool the server builds counts its batches and restarts here.
        self.registry = MetricsRegistry()
        if pool is None:
            kwargs = {}
            if config.shm_min_nodes >= 0:
                kwargs["shm_min_nodes"] = config.shm_min_nodes
            pool = WorkerPool(
                config.workers,
                inline_threads=config.inline_threads,
                shm_transport=config.shm_transport,
                registry=self.registry,
                **kwargs,
            )
        self.pool = pool
        self.metrics = ServiceMetrics(
            self.registry, enabled=config.observability
        )
        if self.cache is not None and config.observability:
            self.cache.bind_registry(self.registry)
        self.registry.gauge("queue_depth", "admission-queue depth").set_function(
            lambda: self._queue.qsize() if self._queue is not None else 0
        )
        self.registry.gauge("inflight", "in-flight request keys").set_function(
            lambda: len(self._inflight)
        )
        self.port: int | None = None  # bound port, set by start()
        self._queue: asyncio.Queue[_Entry] | None = None
        self._inflight: dict[str, asyncio.Future] = {}
        self._server: asyncio.AbstractServer | None = None
        self._dispatcher: asyncio.Task | None = None
        self._batch_tasks: set[asyncio.Task] = set()
        self._batch_slots: asyncio.Semaphore | None = None
        self._writeback_slots: asyncio.Semaphore | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._memo: "OrderedDict[str, dict[str, Any]]" = OrderedDict()
        # frame bytes -> request key: the frame encoding is canonical,
        # so identical bytes are the same request — repeat frames skip
        # the decode entirely (bounded alongside the memo)
        self._body_keys: "OrderedDict[bytes, str]" = OrderedDict()
        # bounded ring of recently answered requests, feeding the
        # dashboard's tables; only populated when the dashboard is on
        self._recent: deque[dict[str, Any]] = deque(maxlen=256)
        self._track_recent = config.dashboard

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        self._queue = asyncio.Queue(maxsize=self.config.queue_limit)
        # Bounding in-flight batches to the pool's concurrency is what
        # makes the admission queue meaningful: when every worker is busy
        # the queue fills and overload turns into 429s, not latency.
        self._batch_slots = asyncio.Semaphore(self.pool.concurrency)
        self._writeback_slots = asyncio.Semaphore(self.pool.concurrency)
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
        # keep-alive connections idle for up to keepalive_timeout; cancel
        # them *before* wait_closed (which on newer Pythons waits for
        # every handler) or shutdown would hang until they time out.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._dispatcher
        for task in list(self._batch_tasks):
            task.cancel()
        self.pool.shutdown()

    def run(self) -> None:
        """Blocking entry point (the CLI's ``serve``); Ctrl-C to stop."""

        async def _main() -> None:
            await self.start()
            assert self._server is not None
            try:
                await self._server.serve_forever()
            finally:
                await self.stop()

        asyncio.run(_main())

    # ------------------------------------------------------------------ #
    # dispatcher: queue -> micro-batches -> worker pool
    # ------------------------------------------------------------------ #

    async def _dispatch_loop(self) -> None:
        """Give each free worker slot the ready set, without waiting.

        The loop blocks on a slot first, then on the first request; the
        batch is that request plus whatever else is queued at that
        moment.  While every slot is busy, arrivals wait in the queue —
        that is where batches form.
        """
        assert self._queue is not None and self._batch_slots is not None
        while True:
            await self._batch_slots.acquire()
            try:
                batch = [await self._queue.get()]
            except asyncio.CancelledError:
                self._batch_slots.release()
                raise
            while len(batch) < self.config.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            task = asyncio.create_task(self._run_batch(batch))
            self._batch_tasks.add(task)
            task.add_done_callback(self._batch_tasks.discard)

    async def _run_batch(self, batch: list[_Entry]) -> None:
        assert self._batch_slots is not None and self._writeback_slots is not None
        t_batch = time.perf_counter()
        holds_batch_slot = True
        try:
            try:
                envelopes = await self.pool.run_batch(
                    [request for request, _, _ in batch]
                )
            except Exception as exc:  # pool death is an internal error
                envelopes = [
                    error_envelope("internal", f"worker pool failure: {exc}")
                ] * len(batch)
            self.metrics.inc_batches()
            self.metrics.inc_computed(len(batch))
            # Hand the dispatch slot back before the write-back, so the
            # workers take the next batch while this one's entries go to
            # disk.  A write-back slot is taken first: at most
            # pool.concurrency batches write at once, and a slow disk
            # still turns into queueing and 429s, not a growing backlog.
            await self._writeback_slots.acquire()
            self._batch_slots.release()
            holds_batch_slot = False
            try:
                await asyncio.gather(*(
                    self._finish_request(entry, envelope, t_batch)
                    for entry, envelope in zip(batch, envelopes)
                ))
            finally:
                self._writeback_slots.release()
        finally:
            if holds_batch_slot:
                self._batch_slots.release()

    async def _finish_request(
        self, entry: _Entry, envelope: dict[str, Any], t_batch: float
    ) -> None:
        """Write one computed entry back, then answer its waiters.

        The reply waits for its own entry only: a 200 still means "on
        disk", while the batch's other entries are written concurrently.
        Whatever the write-back does, the future is resolved and the key
        leaves the in-flight table — a stranded future would hold its
        request (and every identical one after it) until the deadline.
        """
        request, enqueued_at, timings = entry
        key = request.key()
        try:
            if envelope.get("ok") and self.cache is not None:
                # timings never reach the cache: stage breakdowns are
                # provenance of *this* execution, not of the result
                self._memo_put(key, envelope["result"])
                try:
                    # off the loop: a slow disk stalls this write-back,
                    # not every open connection
                    await asyncio.get_running_loop().run_in_executor(
                        None, self.cache.put, key, envelope["result"]
                    )
                except Exception:
                    # a full disk (or a broken cache) must not take the
                    # service down; the answer is still correct
                    self.metrics.inc_cache_write_errors()
            if timings is not None and envelope.get("ok"):
                merged = dict(envelope.get("timings") or {})
                merged.update(timings)
                merged["queue"] = t_batch - enqueued_at
                envelope = dict(envelope, timings=merged)
        finally:
            future = self._inflight.pop(key, None)
            if future is not None and not future.done():
                future.set_result(envelope)

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #

    async def _submit(self, body: bytes) -> tuple[int, dict[str, Any]]:
        self.metrics.inc_received(binary=False)
        t0 = time.perf_counter()
        try:
            obj = json.loads(body)
        except ValueError:
            self.metrics.inc_errors()
            return 400, error_envelope("bad_json", "request body is not valid JSON")
        try:
            request = parse_request(obj)
        except ProtocolError as exc:
            self.metrics.inc_errors()
            return HTTP_STATUS[exc.code], error_envelope(exc.code, exc.message)
        # stage timings exist only for traced requests: untraced ones
        # never allocate the dict, keeping the no-trace overhead at one
        # attribute check
        timings = (
            {"decode": time.perf_counter() - t0}
            if getattr(request, "trace", None)
            else None
        )
        return await self._submit_request(request, t0, timings)

    async def _submit_wire(self, body: bytes) -> tuple[int, dict[str, Any]]:
        """The binary fast path: frame -> trusted tree -> typed request.

        One vectorised validation inside :func:`request_from_frame`
        replaces JSON parsing and the per-element type checks; from the
        typed request on, the lifecycle (dedup, cache, queue, workers)
        is byte-for-byte the JSON path's, so outcomes and cache entries
        are interchangeable between encodings.
        """
        self.metrics.inc_received(binary=True)
        t0 = time.perf_counter()
        try:
            request = request_from_frame(body)
        except ProtocolError as exc:
            self.metrics.inc_errors()
            return HTTP_STATUS[exc.code], error_envelope(exc.code, exc.message)
        timings = (
            {"decode": time.perf_counter() - t0}
            if getattr(request, "trace", None)
            else None
        )
        return await self._submit_request(request, t0, timings)

    def _fast_submit(
        self, body: bytes, content_type: str | None, *, binary: bool, close: bool
    ) -> tuple[bytes, bool] | None:
        """A fully synchronous answer for frame requests the memo holds.

        Returns the rendered response, or ``None`` to send the request
        down the ordinary pipelined path (which re-decodes — cheap next
        to the compute a memo miss implies).  Skipping the per-request
        task, semaphore and executor machinery roughly halves the
        loop's cost per warm hit, which is most of a pipelined burst.
        """
        if not self._memo or media_type(content_type) != WIRE_CONTENT_TYPE:
            return None
        t0 = time.perf_counter()
        key = self._body_keys.get(body)
        if key is None:
            try:
                request = request_from_frame(body)
            except ProtocolError:
                return None  # the full path renders the error (and counts it)
            if getattr(request, "trace", None):
                # traced requests take the full path, which produces the
                # stage breakdown (and is what tracing opts into paying)
                return None
            key = request.key()
            self._body_keys[bytes(body)] = key
            while len(self._body_keys) > self.config.memo_entries:
                self._body_keys.popitem(last=False)
        value = self._memo_get(key)
        if value is None:
            return None
        self.metrics.inc_received(binary=True)
        self.metrics.inc_completed()
        self.metrics.record_latency(time.perf_counter() - t0)
        if self._track_recent:
            self._record_recent(key, value, cached=True, deduped=False,
                                elapsed=time.perf_counter() - t0)
        return self._render(
            200,
            ok_envelope(value, key=key, cached=True),
            binary=binary,
            close=close,
        )

    def _memo_get(self, key: str) -> dict[str, Any] | None:
        value = self._memo.get(key)
        if value is not None:
            self._memo.move_to_end(key)
            self.metrics.inc_memo_hit()
        return value

    def _memo_put(self, key: str, value: dict[str, Any]) -> None:
        cap = self.config.memo_entries
        if cap <= 0:
            return
        self._memo[key] = value
        self._memo.move_to_end(key)
        while len(self._memo) > cap:
            self._memo.popitem(last=False)

    def _record_recent(
        self,
        key: str,
        value: dict[str, Any] | None,
        *,
        cached: bool,
        deduped: bool,
        elapsed: float,
    ) -> None:
        """Append one answered request to the dashboard's bounded ring."""
        value = value or {}
        self._recent.append({
            "key": key,
            "kind": value.get("kind"),
            "algorithm": value.get("algorithm"),
            "io_volume": value.get("io_volume"),
            "cached": cached,
            "deduped": deduped,
            "elapsed_ms": elapsed * 1000.0,
            "traced": "schedule_trace" in value,
            "ts": time.time(),
        })

    async def _submit_request(
        self, request: Any, t0: float, timings: dict[str, float] | None = None
    ) -> tuple[int, dict[str, Any]]:
        key = request.key()
        timeout = request.timeout or self.config.request_timeout
        loop = asyncio.get_running_loop()
        self.metrics.record_strategy(
            getattr(request, "algorithm", None) or request.kind
        )

        # 1) coalesce onto an identical in-flight computation
        existing = self._inflight.get(key)
        if existing is not None:
            self.metrics.inc_deduped()
            return await self._await_result(
                existing, key, timeout, t0, deduped=True
            )

        # Register as in-flight *before* the cache lookup below awaits:
        # identical requests arriving during the disk read coalesce here
        # instead of issuing their own read (or their own computation).
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future

        def _resolve(status: int, envelope: dict[str, Any]) -> tuple[int, dict[str, Any]]:
            self._inflight.pop(key, None)
            if not future.done():
                future.set_result(envelope)
            return status, envelope

        # 2) serve a completed identical request from the result cache —
        #    hottest entries straight from the in-memory memo (no
        #    executor hop, no disk), the rest from disk on the default
        #    executor, never on the loop
        if self.cache is not None:
            t_cache = time.perf_counter()
            value = self._memo_get(key)
            if value is None:
                value = await loop.run_in_executor(None, self.cache.get, key)
                if value is not None:
                    self._memo_put(key, value)
            if timings is not None:
                timings["cache"] = time.perf_counter() - t_cache
            if value is not None:
                self.metrics.inc_completed()
                elapsed = time.perf_counter() - t0
                self.metrics.record_latency(elapsed)
                if self._track_recent:
                    self._record_recent(
                        key, value, cached=True, deduped=False, elapsed=elapsed
                    )
                return _resolve(
                    200,
                    ok_envelope(value, key=key, cached=True, timings=timings),
                )

        # 3) admit into the bounded queue (or reject: backpressure)
        assert self._queue is not None
        try:
            self._queue.put_nowait((request, time.perf_counter(), timings))
        except asyncio.QueueFull:
            self.metrics.inc_rejected()
            # resolves the future too: coalesced waiters share the 429
            return _resolve(
                429,
                error_envelope(
                    "queue_full",
                    f"admission queue at capacity ({self.config.queue_limit}); "
                    "retry later",
                ),
            )
        return await self._await_result(future, key, timeout, t0, deduped=False)

    async def _await_result(
        self,
        future: asyncio.Future,
        key: str,
        timeout: float,
        t0: float,
        *,
        deduped: bool,
    ) -> tuple[int, dict[str, Any]]:
        try:
            # shield: a timeout abandons *this waiter*, not the shared
            # computation — it still completes and populates the cache.
            envelope = await asyncio.wait_for(asyncio.shield(future), timeout)
        except asyncio.TimeoutError:
            self.metrics.inc_timeouts()
            return 504, error_envelope(
                "timeout", f"request did not complete within {timeout:.3f}s"
            )
        if envelope.get("ok"):
            self.metrics.inc_completed()
            elapsed = time.perf_counter() - t0
            self.metrics.record_latency(elapsed)
            if deduped:
                envelope = dict(envelope, deduped=True)
            if self._track_recent:
                self._record_recent(
                    key,
                    envelope.get("result"),
                    cached=bool(envelope.get("cached")),
                    deduped=deduped,
                    elapsed=elapsed,
                )
            return 200, envelope
        self.metrics.inc_errors()
        code = envelope.get("error", {}).get("code", "internal")
        return HTTP_STATUS.get(code, 500), envelope

    def _metrics_body(self) -> dict[str, Any]:
        queue_depth = self._queue.qsize() if self._queue is not None else 0
        return self.metrics.snapshot(
            queue_depth=queue_depth, inflight=len(self._inflight)
        )

    # ------------------------------------------------------------------ #
    # minimal HTTP/1.1 plumbing (stdlib only; keep-alive + pipelining)
    # ------------------------------------------------------------------ #

    def _render(
        self, status: int, body: dict[str, Any], *, binary: bool, close: bool
    ) -> tuple[bytes, bool]:
        """One rendered HTTP response; returns ``(bytes, close_after)``."""
        if binary:
            payload = encode_response_frame(body)
            content_type = WIRE_CONTENT_TYPE
        else:
            payload = json.dumps(body).encode("utf-8")
            content_type = JSON_CONTENT_TYPE
        return self._render_raw(status, content_type, payload, close=close)

    def _render_raw(
        self, status: int, content_type: str, payload: bytes, *, close: bool
    ) -> tuple[bytes, bool]:
        """Render a response whose payload bytes are already encoded
        (Prometheus text, dashboard HTML, trace SVG)."""
        self.metrics.add_tx(len(payload))
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n"
        )
        return head.encode("ascii") + payload, close

    async def _write_loop(
        self, queue: "asyncio.Queue", writer: asyncio.StreamWriter
    ) -> None:
        """Drain rendered responses to the socket, strictly in order.

        Queue items are awaitables resolving to ``(bytes, close_after)``
        — pipelined requests complete in any order, but their responses
        leave in the order the requests arrived.  Responses that are
        ready back-to-back are coalesced into one write: under a
        pipelined burst that turns a syscall per response into a
        syscall per batch of ready responses.
        """
        ready: list[bytes] = []
        close = False
        try:
            while not close:
                if ready and queue.empty():
                    writer.write(b"".join(ready))
                    ready.clear()
                    await writer.drain()
                item = await queue.get()
                if item is None:
                    break
                if ready and not item.done():
                    writer.write(b"".join(ready))
                    ready.clear()
                    await writer.drain()
                data, close = await item
                ready.append(data)
        finally:
            if ready:
                with contextlib.suppress(ConnectionError, RuntimeError):
                    writer.write(b"".join(ready))
                    await writer.drain()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        keepalive = self.config.keepalive_timeout
        pipeline = asyncio.Semaphore(max(1, self.config.max_pipeline))
        responses: asyncio.Queue = asyncio.Queue()
        write_task = asyncio.create_task(self._write_loop(responses, writer))
        loop = asyncio.get_running_loop()

        def _enqueue_now(rendered: tuple[bytes, bool]) -> None:
            future: asyncio.Future = loop.create_future()
            future.set_result(rendered)
            responses.put_nowait(future)

        try:
            while True:
                try:
                    parsed = await asyncio.wait_for(
                        self._read_request(reader),
                        keepalive if keepalive > 0 else None,
                    )
                except asyncio.TimeoutError:
                    break  # idle keep-alive connection: hang up quietly
                except (ValueError, asyncio.LimitOverrunError):
                    # an over-long request/header line blew the
                    # StreamReader limit; the stream cannot be resynced
                    _enqueue_now(self._render(
                        400,
                        error_envelope("bad_request", "malformed HTTP request"),
                        binary=False, close=True,
                    ))
                    break
                except (ConnectionError, asyncio.IncompleteReadError):
                    break  # client went away mid-request
                if parsed is None:
                    break  # clean EOF between requests
                method, path, headers, body, oversized = parsed
                self.metrics.add_rx(len(body))
                close = (
                    keepalive <= 0
                    or headers.get("connection", "").strip().lower() == "close"
                )
                binary = accepts_wire(headers.get("accept"))

                if oversized:
                    # the body was never read; the stream cannot continue
                    _enqueue_now(self._render(
                        413,
                        error_envelope(
                            "payload_too_large",
                            f"body of {oversized} bytes exceeds "
                            f"{self.config.max_body_bytes}",
                        ),
                        binary=binary, close=True,
                    ))
                    break
                if path == "/v1/submit" and method == "POST":
                    fast = self._fast_submit(
                        body, headers.get("content-type"),
                        binary=binary, close=close,
                    )
                    if fast is not None:
                        _enqueue_now(fast)
                        if close:
                            break
                        continue
                    # the pipelined path: handle concurrently, answer in order
                    await pipeline.acquire()
                    responses.put_nowait(asyncio.create_task(
                        self._pipelined_submit(
                            body, headers.get("content-type"), pipeline,
                            binary=binary, close=close,
                        )
                    ))
                    if close:
                        break
                    continue
                raw = self._route_raw(method, path, headers, close=close)
                if raw is None:
                    status, envelope = self._route_simple(method, path)
                    raw = self._render(status, envelope, binary=False, close=close)
                _enqueue_now(raw)
                if close:
                    break
            responses.put_nowait(None)
            await write_task
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            if not write_task.done():
                write_task.cancel()
                with contextlib.suppress(asyncio.CancelledError, ConnectionError):
                    await write_task
            with contextlib.suppress(ConnectionError):
                writer.close()
                await writer.wait_closed()

    def _route_raw(
        self, method: str, path: str, headers: dict[str, str], *, close: bool
    ) -> tuple[bytes, bool] | None:
        """Routes whose responses are not JSON envelopes: the Prometheus
        exposition of ``/metrics`` (negotiated via ``Accept``) and the
        dashboard's page and per-request schedule-trace SVGs.  Returns
        ``None`` to fall through to :meth:`_route_simple`.
        """
        if method != "GET":
            return None
        if path == "/metrics":
            accept = headers.get("accept", "")
            if "text/plain" in accept or "openmetrics" in accept:
                text = self.registry.render_prometheus()
                return self._render_raw(
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    text.encode("utf-8"),
                    close=close,
                )
            return None
        if not self.config.dashboard:
            return None
        from .dashboard import DASHBOARD_HTML, render_trace_svg

        if path in ("/dash", "/dash/"):
            return self._render_raw(
                200,
                "text/html; charset=utf-8",
                DASHBOARD_HTML.encode("utf-8"),
                close=close,
            )
        if path.startswith("/dash/trace/"):
            key = path[len("/dash/trace/"):]
            result = self._peek_result(key)
            if result is None or "schedule_trace" not in result:
                return self._render(
                    404,
                    error_envelope(
                        "not_found",
                        "no cached result with a schedule trace under that "
                        "key (submit it with trace_schedule=true first)",
                    ),
                    binary=False,
                    close=close,
                )
            svg = render_trace_svg(result, key)
            return self._render_raw(
                200, "image/svg+xml", svg.encode("utf-8"), close=close
            )
        return None

    def _peek_result(self, key: str) -> dict[str, Any] | None:
        """A cached result by key, *without* touching hit/miss counters —
        dashboard drill-downs must not pollute the cache metrics."""
        if len(key) != 64 or not all(c in "0123456789abcdef" for c in key):
            return None
        value = self._memo.get(key)
        if value is not None:
            return value
        if self.cache is None:
            return None
        try:
            return json.loads(
                self.cache._path(key).read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            return None

    def _route_simple(self, method: str, path: str) -> tuple[int, dict[str, Any]]:
        if path == "/healthz" and method == "GET":
            from .. import __version__ as repro_version

            return 200, {
                "ok": True,
                "protocol": PROTOCOL_VERSION,
                "versions": {
                    "repro": repro_version,
                    "protocol": PROTOCOL_VERSION,
                    "wire": WIRE_VERSION,
                    "engine": ENGINE_VERSION,
                },
            }
        if path == "/metrics" and method == "GET":
            return 200, self._metrics_body()
        if path == "/dash/data" and method == "GET" and self.config.dashboard:
            from .dashboard import dashboard_data

            return 200, dashboard_data(self)
        if path == "/v1/submit":
            return 405, error_envelope(
                "method_not_allowed", f"{method} not allowed on {path}"
            )
        return 404, error_envelope("not_found", f"no endpoint {method} {path}")

    async def _pipelined_submit(
        self,
        body: bytes,
        content_type: str | None,
        pipeline: asyncio.Semaphore,
        *,
        binary: bool,
        close: bool,
    ) -> tuple[bytes, bool]:
        """One submit, from negotiation to rendered bytes (pipeline-safe)."""
        try:
            received = media_type(content_type)
            if received == WIRE_CONTENT_TYPE:
                status, envelope = await self._submit_wire(body)
            elif received in ("", JSON_CONTENT_TYPE, "text/json"):
                status, envelope = await self._submit(body)
            else:
                self.metrics.inc_errors()
                status, envelope = 415, error_envelope(
                    "unsupported_media_type",
                    f"cannot decode a {received!r} body; send "
                    f"{JSON_CONTENT_TYPE} or {WIRE_CONTENT_TYPE}",
                )
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # defence: a handler bug must not wedge the writer
            status, envelope = 500, error_envelope(
                "internal", f"unexpected failure handling request: {exc}"
            )
        finally:
            pipeline.release()
        if status == 200 and "timings" in envelope:
            # traced requests opt into measuring their own encode: time a
            # throwaway encode, then render the patched envelope (copied —
            # coalesced waiters share the resolved envelope's timings)
            t_encode = time.perf_counter()
            if binary:
                encode_response_frame(envelope)
            else:
                json.dumps(envelope)
            timings = dict(envelope["timings"])
            timings["encode"] = time.perf_counter() - t_encode
            envelope = dict(envelope, timings=timings)
        return self._render(status, envelope, binary=binary, close=close)

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes, int] | None:
        """Read one full request off the stream (head *and* body).

        Returns ``None`` on clean EOF before a request line, else
        ``(method, path, headers, body, oversized)`` where a non-zero
        ``oversized`` is the declared length of a body that was *not*
        read because it exceeds ``max_body_bytes`` (the connection must
        close after answering 413).  Raises ``ValueError`` on malformed
        heads — the caller answers 400 and closes.
        """
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial.strip():
                return None  # clean EOF between requests
            raise  # client went away mid-head; nothing to answer
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) < 2:
            raise ValueError("malformed request line")
        method, path = parts[0], parts[1]

        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            content_length = int(headers.get("content-length", "0"))
        except ValueError:
            raise ValueError("bad Content-Length") from None
        if content_length < 0:
            raise ValueError("bad Content-Length")
        if content_length > self.config.max_body_bytes:
            return method, path, headers, b"", content_length
        body = await reader.readexactly(content_length) if content_length else b""
        return method, path, headers, body, 0


class ServerThread:
    """Run a :class:`ServiceServer` on a background thread (tests, benchmarks).

    Context-manager protocol: entering starts the loop thread, binds the
    socket (an ephemeral port if ``config.port == 0``) and blocks until
    the service answers; exiting shuts everything down.

    ::

        with ServerThread(ServerConfig(port=0, workers=0)) as srv:
            client = ServiceClient(port=srv.port)
            ...
    """

    def __init__(
        self,
        config: ServerConfig = ServerConfig(port=0, workers=0),
        *,
        cache: ResultCache | None = None,
        pool: WorkerPool | None = None,
    ):
        self.server = ServiceServer(config, cache=cache, pool=pool)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._startup_error: BaseException | None = None

    @property
    def host(self) -> str:
        return self.server.config.host

    @property
    def port(self) -> int:
        assert self.server.port is not None, "server not started"
        return self.server.port

    def __enter__(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise RuntimeError("service failed to start") from self._startup_error
        if not self._ready.is_set():
            raise RuntimeError("service did not start within 30s")
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30)

    def _run(self) -> None:
        async def _main() -> None:
            self._stop = asyncio.Event()
            try:
                await self.server.start()
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                raise
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            try:
                await self._stop.wait()
            finally:
                await self.server.stop()

        with contextlib.suppress(Exception):
            asyncio.run(_main())


@contextlib.contextmanager
def running_server(
    config: ServerConfig = ServerConfig(port=0, workers=0),
    *,
    cache: ResultCache | None = None,
    pool: WorkerPool | None = None,
) -> Iterator[ServiceServer]:
    """``with running_server(...) as server:`` — thread-backed, auto-stopped."""
    with ServerThread(config, cache=cache, pool=pool) as thread:
        yield thread.server
