"""The asyncio scheduling service: JSON over HTTP, stdlib only.

Request lifecycle, the same for both encodings::

    POST /v1/submit
      │
    decode, once (frame or JSON) ───────────── 400/415 + code
      │
    untraced and in the memo? ──────────────── 200 now, in the connection
      │                                        handler (no task, no executor)
      │  one pipelined task from here on
    identical request in flight? ───────────── await its future
      │
    memo or disk cache hit? ────────────────── 200
      │
    admission queue ── full? 429 ──► dispatcher ──► WorkerPool (processes)
                                                         │
                       cache.put_many, resolve futures ◄─┘

Four mechanisms do the heavy lifting:

* **Micro-batching** — the moment a dispatch slot is free, the
  dispatcher ships everything already waiting in the admission queue
  (up to ``max_batch``) in one executor call; it never waits for more
  to arrive.  Each worker has two slots (:data:`BATCHES_PER_WORKER`):
  one batch running and the next already pickled and queued in the
  executor, so a worker starts its next batch the moment it returns a
  result instead of idling while the server unpickles, forms and
  pickles the next one.  While every slot is busy, requests queue up,
  so batches grow exactly when load is high and pickle/IPC overhead
  needs amortising — and an idle service dispatches a lone request at
  once.
* **Cache-backed dedup** — every request is content-addressed (see
  :meth:`repro.api.requests.CanonicalRequest.key`); an identical *in-flight* request
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
  while this one's entries are appended to the cache in one write; the
  batch's requests are answered once that write is done.  At most
  ``pool.concurrency`` batches write back at once, so a slow disk
  still backs up into the admission queue.

Endpoints: ``POST /v1/submit``, ``GET /healthz``, ``GET /metrics``
(the JSON shape, or Prometheus text under ``Accept: text/plain``), and
``/dash`` with ``dashboard`` on.  The counters live in the server's own
:class:`~repro.obs.MetricsRegistry` (``ServiceServer.registry``).

Requests and envelopes are the typed model of :mod:`repro.api`: the
server is one of three interchangeable backends (see
:class:`repro.api.backends.RemoteBackend` for the client side), which
is why its cache entries are warm hits for local and embedded-pool
execution too.

Two content types share ``/v1/submit`` (see :mod:`repro.service.wire`):
JSON, and the length-framed binary protocol negotiated per request via
``Content-Type`` / ``Accept``.  :meth:`ServiceServer._decode` validates
either once — binary submissions straight off their int64 columns, with
no JSON parse — and counts it; from the typed request on, nothing
depends on the encoding, and that object is what the queue and the
workers carry on: a micro-batch reaches its worker process as one
pickle of those objects, with their cached keys (see
:mod:`repro.service.pool`).
Connections are HTTP/1.1 keep-alive with request pipelining: responses
are written strictly in request order by a per-connection writer, while
up to ``max_pipeline`` requests from the same connection are in flight
at once.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Iterator

from ..api.errors import HTTP_STATUS, ProtocolError
from ..api.outcome import PROTOCOL_VERSION, error_envelope, ok_envelope
from ..api.requests import ENGINE_VERSION, Request, parse_request
from ..datasets.store import ResultCache
from ..obs.metrics import MetricsRegistry
from .pool import WorkerPool
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
    "ServiceServer",
    "ServerThread",
    "running_server",
]

#: micro-batches in flight per worker: one running, one queued behind it
BATCHES_PER_WORKER = 2

#: an admission-queue entry: (request, enqueue perf_counter, timings|None)
_Entry = tuple[Request, float, dict[str, float] | None]

class _NoOp:
    """What every metric the server counts into is with observability off."""

    __slots__ = ()

    def inc(self, amount: int | float = 1) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def labels(self, **labels: Any) -> "_NoOp":
        return self


_NOOP = _NoOp()


@dataclass(slots=True)
class _Submit:
    """One decoded ``/v1/submit`` body.

    ``request`` is ``None`` only when the frame-bytes map recognised a
    frame whose result the memo holds: the memo answers it, so it is
    never decoded.  ``timings`` exists for traced requests only.
    """

    key: str
    request: Request | None
    t0: float  # perf_counter when the body started decoding
    timings: dict[str, float] | None


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


def _keep_read_buffers_on_the_heap() -> None:
    """Let glibc serve asyncio's socket read buffers from its heap.

    asyncio reads every socket with ``recv(256 KiB)``.  Under glibc's
    default 128 KiB mmap threshold each such buffer is mapped and
    unmapped again, with fresh page faults: ~16 µs per read against
    ~2 µs from the heap, measured on a socket pair.  glibc raises the
    threshold by itself once the process frees a larger mapped block
    (importing scipy at start-up used to do that by accident); the
    server sets it outright.  Elsewhere than glibc this does nothing.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    # <malloc.h>: M_MMAP_THRESHOLD = -3, above the 256 KiB buffer;
    # M_TRIM_THRESHOLD = -1, at twice that, the ratio glibc itself keeps
    mallopt(-3, 1 << 20)
    mallopt(-1, 2 << 20)


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
            pool = WorkerPool(
                config.workers,
                inline_threads=config.inline_threads,
                registry=self.registry,
            )
        self.pool = pool
        self._bind_metrics(config.observability)
        if self.cache is not None and config.observability:
            self.cache.bind_registry(self.registry)
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
        # frame bytes -> (request key, its strategy's counter): the
        # frame encoding is canonical, so identical bytes are the same
        # request — a repeat frame the memo answers is never decoded
        # (bounded alongside the memo)
        self._body_keys: "OrderedDict[bytes, tuple[str, Any]]" = OrderedDict()
        # bounded ring of recently answered requests, feeding the
        # dashboard's tables; only populated when the dashboard is on
        self._recent: deque[dict[str, Any]] = deque(maxlen=256)
        self._track_recent = config.dashboard

    def _bind_metrics(self, enabled: bool) -> None:
        """Register the server's metrics and resolve the hot path's children.

        Every series exists whether or not ``enabled`` is set, so both
        ``/metrics`` renderings keep their shape; with it unset, each
        child the hot path counts into is :data:`_NOOP`, the baseline
        the tracing-overhead benchmark compares against.
        """
        r = self.registry
        requests = r.counter("requests_total", "requests received, by submit encoding")
        cache_hits = r.counter("cache_hits_total", "result-cache hits by tier")
        cache_hits.labels(tier="disk")  # counted by the ResultCache itself
        r.counter("cache_misses_total", "result-cache misses")
        wire_bytes = r.counter("wire_bytes_total", "HTTP payload bytes, by direction")
        hot = (
            requests.labels(encoding="json"),
            requests.labels(encoding="binary"),
            r.counter("requests_by_strategy_total", "admitted requests by algorithm"),
            r.counter("requests_completed_total", "requests answered 200"),
            r.counter("requests_computed_total", "requests that reached a worker"),
            r.counter("batches_total", "micro-batches dispatched"),
            r.counter("requests_rejected_total", "429 queue_full rejections"),
            r.counter("requests_timeout_total", "504 per-request deadline expiries"),
            r.counter(
                "requests_error_total", "validation + execution + internal errors"
            ),
            r.counter(
                "requests_deduped_total", "requests coalesced onto in-flight twins"
            ),
            cache_hits.labels(tier="memo"),
            r.counter("cache_write_errors_total", "result-cache writes that failed"),
            r.histogram("solve_seconds", "request latency in seconds (bounded window)"),
            wire_bytes.labels(direction="rx"),
            wire_bytes.labels(direction="tx"),
        )
        (
            self._req_json,
            self._req_binary,
            self._by_strategy,
            self._completed,
            self._computed,
            self._batches,
            self._rejected,
            self._timeouts,
            self._errors,
            self._deduped,
            self._memo_hits,
            self._cache_write_errors,
            self._latency,
            self._rx_bytes,
            self._tx_bytes,
        ) = hot if enabled else (_NOOP,) * len(hot)
        r.gauge("queue_depth", "admission-queue depth").set_function(
            lambda: self._queue.qsize() if self._queue is not None else 0
        )
        r.gauge("inflight", "in-flight request keys").set_function(
            lambda: len(self._inflight)
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        self._queue = asyncio.Queue(maxsize=self.config.queue_limit)
        # Bounding in-flight batches to a small multiple of the pool's
        # concurrency is what makes the admission queue meaningful: when
        # every worker is busy and has its next batch queued, the queue
        # fills and overload turns into 429s, not latency.
        self._batch_slots = asyncio.Semaphore(
            BATCHES_PER_WORKER * self.pool.concurrency
        )
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
        """Blocking entry point (the CLI's ``serve``) until Ctrl-C or SIGTERM.

        Both :meth:`stop` the server, which shuts the worker pool down;
        Ctrl-C then raises ``KeyboardInterrupt``, SIGTERM returns.
        """
        _keep_read_buffers_on_the_heap()

        async def _main() -> None:
            terminated = asyncio.Event()
            loop = asyncio.get_running_loop()
            loop.add_signal_handler(signal.SIGTERM, terminated.set)
            try:
                await self.start()
                await terminated.wait()
            finally:
                loop.remove_signal_handler(signal.SIGTERM)
                await self.stop()

        asyncio.run(_main())

    # ------------------------------------------------------------------ #
    # dispatcher: queue -> micro-batches -> worker pool
    # ------------------------------------------------------------------ #

    async def _dispatch_loop(self) -> None:
        """Give each free worker slot the ready set, without waiting.

        The loop blocks on a slot first, then on the first request; the
        batch is that request plus whatever else is queued at that
        moment.  While every slot is busy (each worker running one batch
        with another queued behind it), arrivals wait in the queue —
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
            # the pool answers a dead worker request by request; what is
            # left (say, an executor shut down under the batch) fails it
            except Exception as exc:
                envelopes = [
                    error_envelope("internal", f"worker pool failure: {exc}")
                ] * len(batch)
            self._batches.inc()
            self._computed.inc(len(batch))
            # Hand the dispatch slot back before the write-back, so the
            # workers take the next batch while this one's entries go to
            # disk.  A write-back slot is taken first: at most
            # pool.concurrency batches write at once, and a slow disk
            # still turns into queueing and 429s, not a growing backlog.
            await self._writeback_slots.acquire()
            self._batch_slots.release()
            holds_batch_slot = False
            try:
                await self._finish_batch(batch, envelopes, t_batch)
            finally:
                self._writeback_slots.release()
        finally:
            if holds_batch_slot:
                self._batch_slots.release()

    async def _finish_batch(
        self,
        batch: list[_Entry],
        envelopes: list[dict[str, Any]],
        t_batch: float,
    ) -> None:
        """Write the batch's computed entries back, then answer its waiters.

        One executor call appends every ok entry of the batch, and the
        replies wait for it: a 200 still means "on disk".  Whatever the
        write-back does, every future is resolved and its key leaves the
        in-flight table — a stranded future would hold its request (and
        every identical one after it) until the deadline.
        """
        keys = [request.key() for request, _, _ in batch]
        try:
            if self.cache is not None:
                # timings never reach the cache: stage breakdowns are
                # provenance of *this* execution, not of the result
                items = [
                    (key, envelope["result"])
                    for key, envelope in zip(keys, envelopes)
                    if envelope.get("ok")
                ]
                for key, value in items:
                    self._memo_put(key, value)
                if items:
                    try:
                        # off the loop: a slow disk stalls this
                        # write-back, not every open connection
                        await asyncio.get_running_loop().run_in_executor(
                            None, self.cache.put_many, items
                        )
                    except Exception:
                        # a full disk (or a broken cache) must not take
                        # the service down; the answers are still correct
                        self._cache_write_errors.inc(len(items))
        finally:
            for key, (_, enqueued_at, timings), envelope in zip(
                keys, batch, envelopes
            ):
                if timings is not None and envelope.get("ok"):
                    merged = dict(envelope.get("timings") or {})
                    merged.update(timings)
                    # the admission wait only: the wait of a batch queued
                    # in the executor behind the running one is in no stage
                    merged["queue"] = t_batch - enqueued_at
                    envelope = dict(envelope, timings=merged)
                future = self._inflight.pop(key, None)
                if future is not None and not future.done():
                    future.set_result(envelope)

    # ------------------------------------------------------------------ #
    # request handling: decode once, then memo or the lifecycle
    # ------------------------------------------------------------------ #

    def _decode(
        self, body: bytes, content_type: str | None
    ) -> _Submit | tuple[int, dict[str, Any]]:
        """A submit body, decoded once, or its ``(status, error envelope)``.

        A frame goes through :func:`request_from_frame` (one vectorised
        validation, no JSON parse), a JSON body through
        :func:`parse_request`; from the typed request on, the lifecycle
        is the same for both encodings, so outcomes and cache entries
        are interchangeable between them.  The request, its strategy
        and a rejection are each counted here, once.
        """
        t0 = time.perf_counter()
        received = media_type(content_type)
        try:
            if received == WIRE_CONTENT_TYPE:
                self._req_binary.inc()
                known = self._body_keys.get(body)
                if known is not None and known[0] in self._memo:
                    key, strategy = known
                    strategy.inc()
                    return _Submit(key, None, t0, None)
                request = request_from_frame(body)
            elif received in ("", JSON_CONTENT_TYPE, "text/json"):
                self._req_json.inc()
                try:
                    obj = json.loads(body)
                except (ValueError, RecursionError):  # too deep is malformed too
                    raise ProtocolError(
                        "bad_json", "request body is not valid JSON"
                    ) from None
                request = parse_request(obj)
            else:
                raise ProtocolError(
                    "unsupported_media_type",
                    f"cannot decode a {received!r} body; send "
                    f"{JSON_CONTENT_TYPE} or {WIRE_CONTENT_TYPE}",
                )
        except ProtocolError as exc:
            self._errors.inc()
            return HTTP_STATUS[exc.code], error_envelope(exc.code, exc.message)
        except Exception as exc:  # defence: a decoder bug must not drop the connection
            self._errors.inc()
            return 500, error_envelope(
                "internal", f"unexpected failure handling request: {exc}"
            )
        # stage timings exist only for traced requests: untraced ones
        # never allocate the dict, keeping the no-trace overhead at one
        # attribute check
        timings = (
            {"decode": time.perf_counter() - t0}
            if getattr(request, "trace", None)
            else None
        )
        strategy = self._by_strategy.labels(
            strategy=getattr(request, "algorithm", None) or request.kind
        )
        strategy.inc()
        key = request.key()
        if timings is None and received == WIRE_CONTENT_TYPE and self._memo:
            # traced frames stay out: they must reach the lifecycle,
            # which is what produces their stage breakdown
            self._body_keys[body] = (key, strategy)
            while len(self._body_keys) > self.config.memo_entries:
                self._body_keys.popitem(last=False)
        return _Submit(key, request, t0, timings)

    def _memo_get(self, key: str) -> dict[str, Any] | None:
        value = self._memo.get(key)
        if value is not None:
            self._memo.move_to_end(key)
            self._memo_hits.inc()
        return value

    def _memo_put(self, key: str, value: dict[str, Any]) -> None:
        cap = self.config.memo_entries
        if cap <= 0:
            return
        self._memo[key] = value
        self._memo.move_to_end(key)
        while len(self._memo) > cap:
            self._memo.popitem(last=False)

    def _complete(
        self,
        key: str,
        value: dict[str, Any] | None,
        t0: float,
        *,
        cached: bool,
        deduped: bool,
    ) -> None:
        """Account one 200: ``completed``, its latency and the dashboard ring."""
        self._completed.inc()
        elapsed = time.perf_counter() - t0
        self._latency.observe(elapsed)
        if self._track_recent:
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

    async def _submit_request(self, submit: _Submit) -> tuple[int, dict[str, Any]]:
        """Dedup, cache and queue one decoded request; await its answer."""
        key, request, t0, timings = (
            submit.key, submit.request, submit.t0, submit.timings
        )
        assert request is not None  # only memo hits skip the decode
        timeout = request.timeout or self.config.request_timeout
        loop = asyncio.get_running_loop()

        # 1) coalesce onto an identical in-flight computation
        existing = self._inflight.get(key)
        if existing is not None:
            self._deduped.inc()
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
                self._complete(key, value, t0, cached=True, deduped=False)
                return _resolve(
                    200,
                    ok_envelope(value, key=key, cached=True, timings=timings),
                )

        # 3) admit into the bounded queue (or reject: backpressure)
        assert self._queue is not None
        try:
            self._queue.put_nowait((request, time.perf_counter(), timings))
        except asyncio.QueueFull:
            self._rejected.inc()
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
            self._timeouts.inc()
            return 504, error_envelope(
                "timeout", f"request did not complete within {timeout:.3f}s"
            )
        if envelope.get("ok"):
            self._complete(
                key,
                envelope.get("result"),
                t0,
                cached=bool(envelope.get("cached")),
                deduped=deduped,
            )
            if deduped:
                envelope = dict(envelope, deduped=True)
            return 200, envelope
        self._errors.inc()
        code = envelope.get("error", {}).get("code", "internal")
        return HTTP_STATUS.get(code, 500), envelope

    async def _pipelined_submit(
        self,
        submit: _Submit,
        pipeline: asyncio.Semaphore,
        *,
        binary: bool,
        close: bool,
    ) -> tuple[bytes, bool]:
        """One submit the memo did not answer, to rendered bytes."""
        try:
            status, envelope = await self._submit_request(submit)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # defence: a handler bug must not wedge the writer
            self._errors.inc()
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

    def _metrics_body(self) -> dict[str, Any]:
        """The JSON ``GET /metrics`` shape, read from the registry."""
        r = self.registry
        encodings = r.counter("requests_total").child_values()
        tiers = r.counter("cache_hits_total").child_values()
        wire_bytes = r.counter("wire_bytes_total").child_values()

        def count(name: str) -> int | float:
            return r.counter(name).value

        return {
            "protocol": PROTOCOL_VERSION,
            # monotonic: wall clock would jump (or go negative) on an
            # NTP step; the recent-ring ``ts`` stays wall-clock on
            # purpose (it is correlated with external logs)
            "uptime_seconds": r.uptime(),
            "queue_depth": self._queue.qsize() if self._queue is not None else 0,
            "inflight": len(self._inflight),
            "requests": {
                "received": encodings["json"] + encodings["binary"],
                "completed": count("requests_completed_total"),
                "computed": count("requests_computed_total"),
                "rejected": count("requests_rejected_total"),
                "timeouts": count("requests_timeout_total"),
                "errors": count("requests_error_total"),
                "wire": encodings["binary"],
                "deduped_inflight": count("requests_deduped_total"),
                "by_encoding": encodings,
                "by_strategy": r.counter("requests_by_strategy_total").child_values(),
            },
            "batches": count("batches_total"),
            "cache": {
                "hits": tiers["memo"] + tiers["disk"],
                "misses": count("cache_misses_total"),
                "memo_hits": tiers["memo"],
                "disk_hits": tiers["disk"],
                "write_errors": count("cache_write_errors_total"),
            },
            "latency_ms": r.histogram("solve_seconds").summary(scale=1000.0),
            "wire_bytes": wire_bytes,
        }

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
        self._tx_bytes.inc(len(payload))
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
                self._rx_bytes.inc(len(body))
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
                    submit = self._decode(body, headers.get("content-type"))
                    if not isinstance(submit, _Submit):
                        _enqueue_now(self._render(*submit, binary=binary, close=close))
                    elif submit.timings is None and (
                        value := self._memo_get(submit.key)
                    ) is not None:
                        # an untraced memo hit is answered here and now:
                        # no task, semaphore or executor hop, which roughly
                        # halves the loop's cost per warm pipelined hit
                        self._complete(
                            submit.key, value, submit.t0, cached=True, deduped=False
                        )
                        _enqueue_now(self._render(
                            200,
                            ok_envelope(value, key=submit.key, cached=True),
                            binary=binary, close=close,
                        ))
                    else:
                        # the lifecycle: handled concurrently, answered in order
                        await pipeline.acquire()
                        responses.put_nowait(asyncio.create_task(
                            self._pipelined_submit(
                                submit, pipeline, binary=binary, close=close
                            )
                        ))
                else:
                    _enqueue_now(self._route(method, path, headers, close=close))
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

    def _route(
        self, method: str, path: str, headers: dict[str, str], *, close: bool
    ) -> tuple[bytes, bool]:
        """Every route but ``POST /v1/submit``, rendered.

        ``GET /metrics`` answers the JSON shape, or the Prometheus
        exposition when ``Accept`` names ``text/plain`` or
        ``openmetrics``; the dashboard's page, data feed and
        schedule-trace SVGs exist only when the dashboard is on.
        """
        if method == "GET" and path == "/healthz":
            from .. import __version__ as repro_version

            return self._render(200, {
                "ok": True,
                "protocol": PROTOCOL_VERSION,
                "versions": {
                    "repro": repro_version,
                    "protocol": PROTOCOL_VERSION,
                    "wire": WIRE_VERSION,
                    "engine": ENGINE_VERSION,
                },
            }, binary=False, close=close)
        if method == "GET" and path == "/metrics":
            accept = headers.get("accept", "")
            if "text/plain" in accept or "openmetrics" in accept:
                text = self.registry.render_prometheus()
                return self._render_raw(
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    text.encode("utf-8"),
                    close=close,
                )
            return self._render(200, self._metrics_body(), binary=False, close=close)
        if method == "GET" and self.config.dashboard:
            from .dashboard import DASHBOARD_HTML, dashboard_data, render_trace_svg

            if path in ("/dash", "/dash/"):
                return self._render_raw(
                    200,
                    "text/html; charset=utf-8",
                    DASHBOARD_HTML.encode("utf-8"),
                    close=close,
                )
            if path == "/dash/data":
                return self._render(
                    200, dashboard_data(self), binary=False, close=close
                )
            if path.startswith("/dash/trace/"):
                key = path[len("/dash/trace/"):]
                result = self._peek_result(key)
                if result is not None and "schedule_trace" in result:
                    svg = render_trace_svg(result, key)
                    return self._render_raw(
                        200, "image/svg+xml", svg.encode("utf-8"), close=close
                    )
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
        if path == "/v1/submit":
            envelope = error_envelope(
                "method_not_allowed", f"{method} not allowed on {path}"
            )
            return self._render(405, envelope, binary=False, close=close)
        envelope = error_envelope("not_found", f"no endpoint {method} {path}")
        return self._render(404, envelope, binary=False, close=close)

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
        return self.cache.peek(key)

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
