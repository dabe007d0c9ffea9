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

Execution itself lives in :mod:`repro.api.execution` — the same
``run_solve``/``run_paging``/``run_exact`` cores every backend shares —
so a request computes byte-identical results here, in
:class:`~repro.api.backends.LocalBackend`, and offline.  This module
owns only the transport: one executor call carries one whole
micro-batch (a single pickle round-trip instead of one per request);
each request inside the batch is individually guarded, so one failing
request yields one error envelope without poisoning its batch-mates.

What crosses the process boundary is the typed request objects
themselves, validated once by the server, with their tuple columns and
their cached content address: the worker never parses a request and
never recomputes a key.  It builds each request's
:class:`~repro.core.tree.TaskTree` exactly once — the constructor's
structural checks are the worker-side guard — and solves on it.  With
shared memory, the trees do not ride in the pickle at all: the pool
packs the batch's ``parents``/``weights`` columns into one
``multiprocessing.shared_memory`` segment (the
:meth:`~repro.core.forest.ArrayForest.pack` layout) and ships the
requests without their columns; the worker reads request ``i``'s tree
back out of slot ``i``.  Inline thread mode (``jobs=0``), small batches
and environments without shared memory use the plain pickle path.

A worker process that dies (OOM killer, a segfaulting extension, a
stray SIGKILL) breaks a ``ProcessPoolExecutor`` for good; the pool then
builds a new executor — once, however many batches saw the break — and
runs the lost batch again.  Requests are content-addressed and results
deterministic, so the retry is idempotent.  A batch that breaks the new
executor too is reported as a failure, not retried forever.  Rebuilds
that follow each other closely are spaced by a bounded, doubling delay,
so a request that kills its worker every time cannot make the pool
fork in a tight loop.
"""

from __future__ import annotations

import asyncio
import contextlib
import copy
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Mapping, Sequence

import numpy as np

from ..api.execution import (
    build_tree,
    execute_request,
    run_exact,
    run_paging,
    run_solve,
)
from ..api.outcome import error_envelope
from ..api.requests import Request, parse_request
from ..core.tree import TaskTree, TreeError

__all__ = [
    "WorkerPool",
    "build_tree",
    "execute_payload",
    "execute_many",
    "run_solve",
    "run_paging",
    "run_exact",
]


def execute_payload(
    payload: Mapping[str, Any], *, seed_rng: bool = True
) -> dict[str, Any]:
    """Parse one wire payload and execute it; one envelope either way.

    The public parse-then-execute helper for callers holding a decoded
    JSON body.  The pool itself never calls it: its batches carry
    requests the server already parsed.
    """
    try:
        request = parse_request(payload)
    except Exception as exc:
        code = getattr(exc, "code", "internal")
        # ApiError.__str__ is "[code] message"; the envelope carries the
        # code separately, so ship the bare message
        return error_envelope(code, getattr(exc, "message", str(exc)))
    return _execute_guarded(request, seed_rng)


def _execute_guarded(request: Request, seed_rng: bool) -> dict[str, Any]:
    """:func:`execute_request` on a fresh ``TaskTree``, crash confined.

    A tree the constructor refuses (only possible for a request built
    without :func:`~repro.api.requests.parse_request`) is this request's
    ``invalid_tree`` envelope.  Solver refusals are already
    ``unsolvable`` envelopes; anything else (a strategy bug,
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
    requests: Sequence[Request],
    seed_rng: bool = True,
    shm_name: str | None = None,
) -> list[dict[str, Any]]:
    """Worker entry point for one micro-batch; one envelope per request.

    With ``shm_name`` the requests arrive without their tree columns
    (see :func:`_pack_batch`): the worker attaches the segment, copies
    the batch blob out, detaches immediately — no lifetime coupling with
    the server's unlink — and gives request ``i`` the columns of slot
    ``i``.
    """
    if shm_name is not None:
        try:
            requests = _unpack_batch(shm_name, requests)
        except (OSError, ValueError) as exc:
            return [
                error_envelope("internal", f"shared-memory batch lost: {exc}")
            ] * len(requests)
    return [_execute_guarded(request, seed_rng) for request in requests]


def _with_columns(request: Request, parents: Any, weights: Any) -> Request:
    """A copy of ``request`` carrying other column objects for the same tree.

    The content address is computed (if it was not already) and travels
    with the copy, so a request stripped for transport and restored in
    the worker keeps the key the server derived.
    """
    request.key()
    clone = copy.copy(request)
    object.__setattr__(clone, "parents", parents)
    object.__setattr__(clone, "weights", weights)
    return clone


# --------------------------------------------------------------------- #
# shared-memory transport: one column buffer per micro-batch
# --------------------------------------------------------------------- #

#: default floor (total nodes per micro-batch) below which the batch is
#: pickled instead: a shared-memory segment costs two syscalls per
#: batch, which tiny batches cannot amortise.
SHM_MIN_BATCH_NODES = 8_192


def _pack_batch(requests: Sequence[Request], min_nodes: int = 0):
    """Pack a micro-batch's trees into one shared-memory segment.

    Returns ``(shm, stripped)`` — ``stripped`` are the requests with
    empty columns, request ``i``'s tree in slot ``i`` of the segment —
    or ``None`` when the batch is smaller than ``min_nodes`` total, a
    column does not fit int64 (the object tree's arbitrary-precision
    weights), or shared memory is unavailable; the caller then pickles
    the requests whole.
    """
    from multiprocessing import shared_memory

    if not requests or sum(len(r.parents) for r in requests) < min_nodes:
        return None
    try:
        parents = [np.asarray(r.parents, dtype=np.int64) for r in requests]
        weights = [np.asarray(r.weights, dtype=np.int64) for r in requests]
        offsets = np.zeros(len(requests) + 1, dtype=np.int64)
        np.cumsum([len(c) for c in parents], out=offsets[1:])
        total = int(offsets[-1])
        words = 2 + len(offsets) + 2 * total
        shm = shared_memory.SharedMemory(create=True, size=words * 8)
    except (OSError, ValueError, OverflowError):
        return None  # no /dev/shm, beyond-int64 weights, ... — pickle instead
    try:
        buf = np.ndarray((words,), dtype=np.int64, buffer=shm.buf)
        buf[0] = len(requests)
        buf[1] = total
        head = 2 + len(offsets)
        buf[2:head] = offsets
        np.concatenate(parents, out=buf[head : head + total])
        np.concatenate(weights, out=buf[head + total :])
        del buf  # release the exported view: close()/unlink() need it gone
    except BaseException:
        _release_shm(shm)
        raise
    return shm, [_with_columns(r, (), ()) for r in requests]


def _unpack_batch(shm_name: str, stripped: Sequence[Request]) -> list[Request]:
    """The worker side of :func:`_pack_batch`: requests with their columns."""
    shm = _attach_shm_untracked(shm_name)
    try:
        words = np.frombuffer(bytes(shm.buf), dtype=np.int64)
    finally:
        shm.close()
    n_trees = len(stripped)
    if len(words) < 2 or int(words[0]) != n_trees:
        raise ValueError("segment does not hold this batch")
    total = int(words[1])
    head = 2 + n_trees + 1
    if len(words) != head + 2 * total:
        raise ValueError(f"segment of {len(words)} words does not match its head")
    offsets = words[2:head].tolist()
    parents = words[head : head + total]
    weights = words[head + total :]
    return [
        _with_columns(
            request,
            tuple(parents[a:b].tolist()),
            tuple(weights[a:b].tolist()),
        )
        for request, a, b in zip(stripped, offsets, offsets[1:])
    ]


def _release_shm(shm) -> None:
    """Close and unlink the batch segment (idempotent, error-proof)."""
    with contextlib.suppress(OSError):
        shm.close()
    with contextlib.suppress(OSError, FileNotFoundError):
        shm.unlink()


def _release_abandoned_pack(future) -> None:
    """Done-callback: free the segment of a pack whose awaiter was cancelled."""
    if future.cancelled():
        return
    if future.exception() is None:
        packed = future.result()
        if packed is not None:
            _release_shm(packed[0])


def _attach_shm_untracked(name: str):
    """Attach to a segment without registering it with a resource tracker.

    On POSIX (≤ 3.12) merely *attaching* registers the name with the
    process's resource tracker, whose later cleanup then races the
    server's ``unlink`` — a forked worker corrupts the shared tracker's
    book-keeping, a spawned one warns about "leaked" segments at exit.
    The batch segment belongs to the server side; the worker only
    borrows it, so the registration is suppressed for the attach.
    (``SharedMemory(..., track=False)`` expresses this from 3.13 on.)
    """
    from multiprocessing import resource_tracker, shared_memory

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


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
        concurrency of the inline mode; also the number of micro-batches
        the server allows in flight at once (its dispatch semaphore is
        sized to :attr:`concurrency`).
    shm_transport:
        ship micro-batch trees to process workers as one shared-memory
        forest buffer instead of pickling element lists (default on;
        meaningless — and ignored — in inline mode, which shares the
        server's heap already).
    shm_min_nodes:
        total-node floor per micro-batch below which the pickle path is
        used even with the transport on (see
        :data:`SHM_MIN_BATCH_NODES`); 0 packs every batch.
    registry:
        a :class:`repro.obs.MetricsRegistry` to count batches
        (``pool_batches_total{transport=shm|pickle}``) and executor
        rebuilds (``pool_restarts_total``) into; defaults to the
        process-wide registry.
    """

    def __init__(
        self,
        jobs: int = 2,
        *,
        inline_threads: int = 1,
        shm_transport: bool = True,
        shm_min_nodes: int = SHM_MIN_BATCH_NODES,
        registry=None,
    ):
        if jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {jobs}")
        if registry is None:
            from ..obs.metrics import get_registry

            registry = get_registry()
        self.registry = registry
        batches = registry.counter(
            "pool_batches_total", "micro-batches executed, by transport"
        )
        self._shm_batch_counter = batches.labels(transport="shm")
        self._pickle_batch_counter = batches.labels(transport="pickle")
        self._restart_counter = registry.counter(
            "pool_restarts_total", "process executors rebuilt after a worker died"
        )
        self.jobs = jobs
        self.shm_transport = bool(shm_transport) and jobs >= 1
        self.shm_min_nodes = shm_min_nodes
        #: batches actually shipped via shared memory (observability)
        self.shm_batches = 0
        #: executors rebuilt after a worker process died (observability)
        self.restarts = 0
        self._rebuild_lock = asyncio.Lock()
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

        A batch lost to a dead worker process runs once more on a
        rebuilt executor; a second break in a row propagates.
        """
        requests = list(requests)
        executor = self._executor
        try:
            return await self._run_on(executor, requests)
        except BrokenProcessPool:
            await self._replace_broken(executor)
            return await self._run_on(self._executor, requests)

    async def _replace_broken(self, broken: Executor) -> None:
        """Swap a broken process executor for a new one, once.

        Every batch in flight on the broken executor fails with it; the
        first to get here rebuilds, the others wait for it and retry on
        the new executor.  A rebuild soon after the previous one waits
        first (see :data:`REBUILD_DELAY_MIN_S`).
        """
        async with self._rebuild_lock:
            if self._executor is not broken:
                return
            last = self._last_rebuild
            if last is not None and self._clock() - last < REBUILD_QUIET_S:
                delay = self._rebuild_delay
                self._rebuild_delay = min(2 * delay, REBUILD_DELAY_MAX_S)
                await self._sleep(delay)
            else:
                self._rebuild_delay = REBUILD_DELAY_MIN_S
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
            broken.shutdown(wait=False, cancel_futures=True)
            self._last_rebuild = self._clock()
            self.restarts += 1
            self._restart_counter.inc()

    async def _run_on(
        self, executor: Executor, requests: list[Request]
    ) -> list[dict[str, Any]]:
        loop = asyncio.get_running_loop()
        if self.shm_transport:
            # pack on the default thread executor: column conversion and
            # the shm_open syscall must not stall the server's event loop
            pack_future = loop.run_in_executor(
                None, _pack_batch, requests, self.shm_min_nodes
            )
            try:
                packed = await pack_future
            except asyncio.CancelledError:
                # the thread may still create the segment after we are
                # gone; release it whenever the pack actually finishes
                pack_future.add_done_callback(_release_abandoned_pack)
                raise
            if packed is not None:
                self.shm_batches += 1
                self._shm_batch_counter.inc()
                shm, stripped = packed
                try:
                    return await loop.run_in_executor(
                        executor, execute_many, stripped, True, shm.name
                    )
                finally:
                    # The worker copied the blob out before returning, so
                    # the segment dies with the batch — even on timeouts
                    # and cancellation.
                    _release_shm(shm)
        # Seed only in process workers (one batch at a time per process);
        # inline threads share one interpreter, where seeding is a race.
        self._pickle_batch_counter.inc()
        return await loop.run_in_executor(
            executor, execute_many, requests, self.jobs >= 1
        )

    def shutdown(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)
