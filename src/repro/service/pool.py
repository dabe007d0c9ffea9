"""The service's worker pool: where request batches actually execute.

The server never computes anything on its event loop.  Micro-batches of
validated requests are handed to a :class:`WorkerPool`, which runs them
either

* on a **persistent** :class:`concurrent.futures.ProcessPoolExecutor`
  (``jobs >= 1``, the production path — workers are stateless and
  resolve strategies *by name* through the registry, exactly like the
  batch engine's shard workers), or
* on a small in-process thread pool (``jobs = 0``), which keeps
  everything in one interpreter — the mode tests use to exercise
  backpressure deterministically and to see strategies registered at
  test time.

Execution itself lives in :mod:`repro.api.execution` — the same cores
every backend shares — so a request computes byte-identical results
here, in :class:`~repro.api.backends.LocalBackend`, and offline.  This
module owns only the transport: one executor call carries one whole
micro-batch (a single pickle round-trip instead of one per request),
and each request inside the batch is individually guarded, so one
failing request yields one error envelope without poisoning its
batch-mates.

What crosses the process boundary is the typed request objects
themselves, pickled, validated once by the server, with their tuple
columns and their cached content address: the worker never parses a
request and never recomputes a key.  A micro-batch's solve requests are
solved together (:func:`~repro.api.execution.execute_solves`): their
trees are packed into one :class:`~repro.core.forest.ArrayForest` (a
batch of large trees into a few, at most 65 536 nodes each), whose
vectorised construction is the worker-side structural check, and one
:func:`~repro.api.execution.solve_forest` call schedules every member,
derives every I/O function with one FiF pass and validates them all in
one pass; a member that fails gets its own ``unsolvable`` or
``internal`` envelope.  Whatever that call does not answer — paging and
exact requests, traced requests, the rows of a forest that refuses one
of its trees — runs alone on a :class:`~repro.core.tree.TaskTree`, whose
constructor is then the guard, so its envelope (``invalid_tree`` text
included) is the one a lone request gets.

The server keeps up to two micro-batches per worker in flight, so a
worker's next batch can already wait, pickled, in the executor while it
runs the current one; see :mod:`repro.service.server`.

A worker process that dies (OOM killer, a segfaulting extension, a
stray SIGKILL) breaks a ``ProcessPoolExecutor`` for good, and every
batch in flight on it is lost.  The pool recovers them without letting
one bad request fail the others: each lost batch is run again one
request per executor call, one call at a time, under the rebuild lock,
and the executor is rebuilt before any call that would land on a broken
one.  Only a request whose own solo call breaks the executor is answered
``internal``; its batch-mates, and the batches that were in flight
beside it, get their answers.  New batches wait until the recovery is
done.  Requests are content-addressed and results deterministic, so the
re-runs are idempotent.  Rebuilds that follow each other closely are
spaced by a bounded, doubling delay, so a request that kills its worker
every time cannot make the pool fork in a tight loop.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Mapping, Sequence

from ..api.execution import execute_request, execute_solves
from ..api.outcome import error_envelope
from ..api.requests import Request, parse_request
from ..core.tree import TaskTree, TreeError

__all__ = ["WorkerPool", "execute_payload", "execute_many"]


def execute_payload(
    payload: Mapping[str, Any], *, seed_rng: bool = True
) -> dict[str, Any]:
    """Parse one wire payload and execute it; one envelope either way.

    The public parse-then-execute helper for callers holding a decoded
    JSON body, answered as a one-request micro-batch.  The pool itself
    never calls it: its batches carry requests the server already
    parsed.
    """
    try:
        request = parse_request(payload)
    except Exception as exc:
        code = getattr(exc, "code", "internal")
        # ApiError.__str__ is "[code] message"; the envelope carries the
        # code separately, so ship the bare message
        return error_envelope(code, getattr(exc, "message", str(exc)))
    return execute_many([request], seed_rng)[0]


def _execute_guarded(request: Request, seed_rng: bool) -> dict[str, Any]:
    """:func:`execute_request` on a fresh ``TaskTree``, crash confined.

    The one-request path.  A tree the constructor refuses (only possible
    for a request built without :func:`~repro.api.requests.parse_request`)
    is this request's ``invalid_tree`` envelope.  Solver refusals are
    already ``unsolvable`` envelopes; anything else (a strategy bug,
    :class:`ExpansionLimitExceeded`, ...) becomes this request's own
    ``internal`` envelope instead of failing its whole micro-batch.
    """
    try:
        tree = TaskTree(request.parents, request.weights)
    except TreeError as exc:
        return error_envelope("invalid_tree", str(exc))
    try:
        return execute_request(request, seed_rng=seed_rng, tree=tree)
    except Exception as exc:
        return error_envelope("internal", f"{type(exc).__name__}: {exc}")


def execute_many(
    requests: Sequence[Request], seed_rng: bool = True
) -> list[dict[str, Any]]:
    """Worker entry point for one micro-batch; one envelope per request.

    The batch's solve requests are solved on one forest
    (:func:`~repro.api.execution.execute_solves`); every request that
    call leaves unanswered runs alone (:func:`_execute_guarded`).  Should
    the shared call itself fail, every request runs alone, so each still
    gets its own answer.
    """
    try:
        envelopes = execute_solves(requests, seed_rng=seed_rng)
    except Exception:
        envelopes = [None] * len(requests)
    return [
        envelope if envelope is not None else _execute_guarded(request, seed_rng)
        for request, envelope in zip(requests, envelopes)
    ]


#: Backoff between executor rebuilds: a rebuild within
#: ``REBUILD_QUIET_S`` seconds of the previous one first waits, starting
#: at ``REBUILD_DELAY_MIN_S`` and doubling up to ``REBUILD_DELAY_MAX_S``;
#: a rebuild after a quiet period waits nothing and resets the delay.
REBUILD_DELAY_MIN_S = 0.05
REBUILD_DELAY_MAX_S = 2.0
REBUILD_QUIET_S = 30.0


def _warmup() -> bool:
    """A no-op unit of work used to pre-fork and import-warm the workers."""
    return True


class WorkerPool:
    """A persistent executor shared by all micro-batches.

    Parameters
    ----------
    jobs:
        ``>= 1`` — that many worker *processes* (the production path);
        ``0`` — run batches on an in-process thread pool of
        ``inline_threads`` threads instead.
    inline_threads:
        concurrency of the inline mode.  The server sizes its dispatch
        semaphore from :attr:`concurrency`: two micro-batches in flight
        per worker or thread.
    registry:
        a :class:`repro.obs.MetricsRegistry` to count batches
        (``pool_batches_total``) and executor rebuilds
        (``pool_restarts_total``) into; defaults to the process-wide
        registry.
    """

    def __init__(
        self,
        jobs: int = 2,
        *,
        inline_threads: int = 1,
        registry=None,
    ):
        if jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {jobs}")
        if registry is None:
            from ..obs.metrics import get_registry

            registry = get_registry()
        self.registry = registry
        self._batch_counter = registry.counter(
            "pool_batches_total", "micro-batches executed"
        )
        self._restart_counter = registry.counter(
            "pool_restarts_total", "process executors rebuilt after a worker died"
        )
        self.jobs = jobs
        #: executors rebuilt after a worker process died (observability)
        self.restarts = 0
        self._rebuild_lock = asyncio.Lock()
        # lost batches waiting for or running their solo re-runs; new
        # batches wait on ``_recovered`` until there are none
        self._recovering = 0
        self._recovered = asyncio.Event()
        self._recovered.set()
        # the executor a call last saw break, while it is still current
        self._broken: Executor | None = None
        self._last_rebuild: float | None = None
        self._rebuild_delay = REBUILD_DELAY_MIN_S
        # time source and wait of the rebuild backoff (tests inject fakes)
        self._clock = time.monotonic
        self._sleep = asyncio.sleep
        if jobs >= 1:
            self.concurrency = jobs
            self._executor: Executor = ProcessPoolExecutor(max_workers=jobs)
        else:
            self.concurrency = max(1, inline_threads)
            self._executor = ThreadPoolExecutor(
                max_workers=self.concurrency, thread_name_prefix="repro-service"
            )

    def warm_up(self) -> None:
        """Block until every worker exists and has imported the package.

        Without this the first requests pay worker fork + import latency,
        which would show up as a spurious cold-start tail in benchmarks.
        """
        futures = [self._executor.submit(_warmup) for _ in range(self.concurrency)]
        for future in futures:
            future.result()

    async def run_batch(self, requests: Sequence[Request]) -> list[dict[str, Any]]:
        """Execute one micro-batch without blocking the event loop.

        A batch lost to a dead worker process is run again one request
        at a time (see :meth:`_rerun_alone`), so each request's envelope
        is its own answer or, if the request itself kills its worker,
        ``internal``.
        """
        requests = list(requests)
        while True:
            await self._recovered.wait()
            executor = self._executor
            if self._broken is not executor:
                break
            await self._replace_broken(executor)
        try:
            return await self._run_on(executor, requests)
        except BrokenProcessPool:
            if executor is self._executor:
                self._broken = executor
            return await self._rerun_alone(requests)

    async def _rerun_alone(self, requests: list[Request]) -> list[dict[str, Any]]:
        """Re-run a lost batch one request per call, one call at a time.

        Holding the rebuild lock serialises every recovery, so a solo
        call shares its executor with no other work: a call that breaks
        it was killed by its own request.  That request alone is
        answered ``internal``; the executor is rebuilt before the next
        call, with the usual backoff.
        """
        self._recovering += 1
        self._recovered.clear()
        try:
            async with self._rebuild_lock:
                envelopes = []
                for request in requests:
                    if self._broken is self._executor:
                        await self._rebuild()
                    executor = self._executor
                    try:
                        envelopes += await self._run_on(executor, [request])
                    except BrokenProcessPool as exc:
                        self._broken = executor
                        envelopes.append(error_envelope(
                            "internal", f"worker process died running this request: {exc}"
                        ))
                return envelopes
        finally:
            self._recovering -= 1
            if not self._recovering:
                self._recovered.set()

    async def _replace_broken(self, broken: Executor) -> None:
        """Swap a broken process executor for a new one, once.

        Callers that saw the same executor break wait for one another;
        the first rebuilds, the rest find it already replaced.
        """
        async with self._rebuild_lock:
            if self._executor is broken:
                await self._rebuild()

    async def _rebuild(self) -> None:
        """Build a new process executor; the caller holds the rebuild lock.

        A rebuild soon after the previous one waits first (see
        :data:`REBUILD_DELAY_MIN_S`).
        """
        broken = self._executor
        last = self._last_rebuild
        if last is not None and self._clock() - last < REBUILD_QUIET_S:
            delay = self._rebuild_delay
            self._rebuild_delay = min(2 * delay, REBUILD_DELAY_MAX_S)
            await self._sleep(delay)
        else:
            self._rebuild_delay = REBUILD_DELAY_MIN_S
        self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        self._broken = None
        broken.shutdown(wait=False, cancel_futures=True)
        self._last_rebuild = self._clock()
        self.restarts += 1
        self._restart_counter.inc()

    async def _run_on(
        self, executor: Executor, requests: list[Request]
    ) -> list[dict[str, Any]]:
        # Seed only in process workers (one batch at a time per process);
        # inline threads share one interpreter, where seeding is a race.
        self._batch_counter.inc()
        return await asyncio.get_running_loop().run_in_executor(
            executor, execute_many, requests, self.jobs >= 1
        )

    def shutdown(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)
