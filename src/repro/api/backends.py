"""Pluggable execution backends: one request model, three places to run it.

A :class:`Backend` takes the typed requests of
:mod:`repro.api.requests` and returns :class:`~repro.api.outcome.Outcome`
envelopes.  The three implementations are interchangeable by contract —
identical requests produce byte-identical canonical outcomes and
identical cache keys on every one of them (the equivalence harness in
``tests/test_api_equivalence.py`` enforces it):

:class:`LocalBackend`
    runs requests in-process through the shared execution cores —
    engine ``auto`` dispatching object trees, flat
    :class:`~repro.core.arraytree.ArrayTree` kernels, or whole-forest
    batches (for :class:`~repro.api.requests.BatchRequest`);
:class:`PoolBackend`
    ships requests to an embedded
    :class:`~repro.service.pool.WorkerPool` — persistent worker
    processes, micro-batched execution, shared-memory forest transport
    included — without running a server;
:class:`RemoteBackend`
    submits requests to a running ``repro-ioschedule serve`` instance
    through :class:`~repro.service.client.ServiceClient`.

Every backend accepts the same optional
:class:`~repro.datasets.store.ResultCache`; because keys come from the
one canonical derivation, a cache written by any backend (or by the
batch engine, or by a server) serves warm hits to all the others.

Two deliberate asymmetries, both inherited from what each backend
wraps:

* a request's ``timeout`` is *delivery policy* (it is excluded from the
  content address for the same reason), and only the serving side
  enforces it — :class:`RemoteBackend` surfaces the server's ``504
  timeout`` envelopes, while :class:`LocalBackend` and
  :class:`PoolBackend` run every request to completion, exactly like
  the service's own worker pool does beneath its dispatcher;
* :class:`RemoteBackend` ships requests through the service's wire
  schema, so it inherits the server's admission caps
  (:data:`~repro.api.requests.MAX_NODES`, the ``10^15`` memory
  ceiling), which :func:`~repro.api.requests.parse_request` enforces
  for every surface that parses wire payloads.  :class:`LocalBackend`
  and :class:`PoolBackend` execute the request objects they are given —
  million-node trees and beyond-int64 bounds run there (and through
  the batch engine), as the CLI's offline commands always have.
"""

from __future__ import annotations

import time
from typing import (
    TYPE_CHECKING,
    Any,
    Coroutine,
    Protocol,
    Sequence,
    TypeVar,
    runtime_checkable,
)

from ..datasets.store import ResultCache
from .errors import ProtocolError, TransportError
from .execution import execute_request
from .outcome import Outcome
from .requests import BatchRequest, Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.metrics import MetricsRegistry
    from ..service.client import ServiceClient
    from ..service.pool import WorkerPool

_T = TypeVar("_T")
_B = TypeVar("_B", bound="_CachingBackend")

__all__ = [
    "Backend",
    "LocalBackend",
    "PoolBackend",
    "RemoteBackend",
]

def _run_sync(coro: Coroutine[Any, Any, _T]) -> _T:
    """Drive a coroutine to completion from synchronous code.

    ``asyncio.run`` when no loop is running; from inside a running loop
    (an embedding asyncio application calling the blocking backend API)
    the coroutine runs on a short-lived helper thread with its own loop
    instead of raising ``RuntimeError`` — still a blocking call, by
    contract, but a working one.
    """
    import asyncio

    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return asyncio.run(coro)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as runner:
        return runner.submit(asyncio.run, coro).result()


@runtime_checkable
class Backend(Protocol):
    """The execution contract every backend implements."""

    #: short provenance label stamped into every outcome (``local``/…).
    name: str

    def submit(self, request: Request | BatchRequest) -> Outcome:
        """Execute one request and return its outcome."""
        ...

    def run(self, requests: Sequence[Any]) -> list[Outcome]:
        """Execute many requests (outcomes in request order)."""
        ...

    def close(self) -> None:
        """Release whatever the backend holds (workers, connections)."""
        ...


class _CachingBackend:
    """Shared skeleton: content-addressed cache in front of execution.

    Lookups happen per request *before* anything is dispatched; only
    misses reach :meth:`_execute`, and their successful results are
    written back — so a warm cache short-circuits every backend the
    same way, and a result computed on one backend is a hit on all.
    """

    name = ""
    #: whether :class:`~repro.api.requests.BatchRequest` units are
    #: accepted — they execute in-process only (the wire schema has no
    #: batch kind), and the check runs up front so acceptance never
    #: depends on cache state.
    supports_batch = False

    def __init__(
        self,
        cache: ResultCache | None = None,
        *,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.cache = cache
        if registry is None:
            from ..obs.metrics import get_registry

            registry = get_registry()
        self.registry = registry
        self._requests_counter = registry.counter(
            "requests_total", "requests submitted, by surface"
        ).labels(backend=self.name or "backend")
        if cache is not None and getattr(cache, "_hit_counter", None) is None:
            cache.bind_registry(registry)

    def submit(self, request: Request | BatchRequest) -> Outcome:
        return self.run([request])[0]

    def run(self, requests: Sequence[Any]) -> list[Outcome]:
        if not self.supports_batch and any(
            isinstance(r, BatchRequest) for r in requests
        ):
            raise ProtocolError(
                "unknown_kind",
                "batch requests execute locally; submit their member "
                "solves individually or use LocalBackend",
            )
        self._requests_counter.inc(len(requests))
        outcomes: list[Outcome | None] = [None] * len(requests)
        misses: list[int] = []
        for i, request in enumerate(requests):
            key = request.key()
            hit = self.cache.get(key) if self.cache is not None else None
            if hit is not None:
                outcomes[i] = Outcome(
                    ok=True, key=key, result=hit, cached=True, backend=self.name
                )
            else:
                misses.append(i)
        if misses:
            computed = self._execute([requests[i] for i in misses])
            # strict: a backend returning a short/long envelope list is
            # an invariant violation and must fail loudly, never silently
            # misattribute outcomes to requests
            for i, outcome in zip(misses, computed, strict=True):
                # this branch only runs on a local-cache miss, so always
                # write back — including results another cache (a warm
                # server) served, which is how hits flow both ways
                if outcome.ok and self.cache is not None:
                    self.cache.put(outcome.key, outcome.result)
                outcomes[i] = outcome
        return [o for o in outcomes if o is not None]

    def _execute(self, requests: Sequence[Any]) -> list[Outcome]:
        raise NotImplementedError

    def close(self) -> None:  # nothing held by default
        pass

    def __enter__(self: _B) -> _B:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class LocalBackend(_CachingBackend):
    """Run requests in the calling process.

    The engine hint on each request resolves exactly as everywhere
    else: ``auto`` picks object trees or flat-array kernels by size,
    and :class:`~repro.api.requests.BatchRequest` units solve through
    the whole-forest kernels (with byte-identical per-tree fallback).

    ``seed_rng`` keeps the worker-pool contract — the process-global
    RNG is seeded from each request's content address — so local runs
    are bit-for-bit reproducible against pool and server runs even for
    strategies that draw global randomness.  Disable it to leave the
    embedding process's RNG state alone.
    """

    name = "local"
    supports_batch = True

    def __init__(
        self,
        cache: ResultCache | None = None,
        *,
        seed_rng: bool = True,
        registry: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(cache, registry=registry)
        self.seed_rng = seed_rng

    def _execute(self, requests: Sequence[Any]) -> list[Outcome]:
        from .execution import execute_batch_request

        outcomes = []
        for request in requests:
            t0 = time.perf_counter()
            if isinstance(request, BatchRequest):
                envelope = execute_batch_request(request, seed_rng=self.seed_rng)
            else:
                envelope = execute_request(request, seed_rng=self.seed_rng)
            outcomes.append(
                Outcome.from_envelope(
                    envelope,
                    key=request.key(),
                    backend=self.name,
                    elapsed_seconds=time.perf_counter() - t0,
                )
            )
        return outcomes


class PoolBackend(_CachingBackend):
    """Run requests on an embedded service worker pool.

    Wraps :class:`~repro.service.pool.WorkerPool` — persistent worker
    processes (``jobs >= 1``), micro-batched dispatch, and the
    shared-memory forest transport — behind the synchronous backend
    contract, without starting a server.  ``jobs=0`` runs on in-process
    threads (the deterministic test mode).  Pass an existing pool to
    share it; the backend then does not own (or close) it.

    The typed requests themselves ride to the workers, exactly as
    behind the server: validated once by whoever built them
    (:func:`~repro.api.requests.parse_request` or the dataclass
    constructor), never re-parsed, with their cached keys.  Each worker
    builds a ``TaskTree`` per request, whose constructor is the
    structural guard.
    """

    name = "pool"

    def __init__(
        self,
        jobs: int = 2,
        *,
        cache: ResultCache | None = None,
        pool: "WorkerPool | None" = None,
        shm_transport: bool = True,
        shm_min_nodes: int | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(cache, registry=registry)
        self._owns_pool = pool is None
        if pool is None:
            from ..service.pool import WorkerPool

            kwargs: dict[str, Any] = {"shm_transport": shm_transport}
            if shm_min_nodes is not None:
                kwargs["shm_min_nodes"] = shm_min_nodes
            pool = WorkerPool(jobs, **kwargs)
        self.pool = pool

    def _execute(self, requests: Sequence[Any]) -> list[Outcome]:
        t0 = time.perf_counter()
        envelopes = _run_sync(self.pool.run_batch(requests))
        elapsed = time.perf_counter() - t0
        return [
            Outcome.from_envelope(
                envelope,
                key=request.key(),
                backend=self.name,
                elapsed_seconds=elapsed,
            )
            for request, envelope in zip(requests, envelopes)
        ]

    def close(self) -> None:
        if self._owns_pool:
            self.pool.shutdown()


class RemoteBackend(_CachingBackend):
    """Submit requests to a running scheduling service.

    Thin by design: each request ships as its wire payload (including
    the per-request deadline) through
    :class:`~repro.service.client.ServiceClient`; the server performs
    its own validation, dedup and caching, and its provenance flags
    (``cached``/``deduped``) surface unchanged in the outcome.  Error
    envelopes come back as error outcomes with the same stable codes as
    every other backend; connection-level failures raise
    :class:`~repro.api.errors.TransportError`.

    A client-side ``cache`` is optional and off by default — the server
    already maintains the authoritative one.

    ``wire`` selects the submit encoding (see
    :class:`~repro.service.client.ServiceClient`): the default
    ``"auto"`` prefers the binary frame path and falls back to JSON
    transparently — per request when a request cannot be framed, and
    stickily when the server predates the frame protocol — so outcomes,
    cache keys and provenance are identical either way.
    """

    name = "remote"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8177,
        *,
        client: "ServiceClient | None" = None,
        cache: ResultCache | None = None,
        timeout: float = 120.0,
        wire: str = "auto",
        registry: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(cache, registry=registry)
        if client is None:
            from ..service.client import ServiceClient

            client = ServiceClient(host, port, timeout=timeout, wire=wire)
        self.client = client

    def _execute(self, requests: Sequence[Any]) -> list[Outcome]:
        from ..service.client import ServiceError

        outcomes = []
        for request in requests:
            t0 = time.perf_counter()
            error_status = None
            try:
                envelope = self.client.submit(request.to_wire())
            except ServiceError as exc:
                if exc.status == 0 or exc.code == "transport":
                    raise TransportError(exc.message) from exc
                # keep the wire status: it classifies (and exit-codes)
                # even codes this client version does not know about
                error_status = exc.status
                envelope = {
                    "ok": False,
                    "error": {"code": exc.code, "message": exc.message},
                }
            outcomes.append(
                Outcome.from_envelope(
                    envelope,
                    key=request.key(),
                    backend=self.name,
                    elapsed_seconds=time.perf_counter() - t0,
                    error_status=error_status,
                )
            )
        return outcomes
