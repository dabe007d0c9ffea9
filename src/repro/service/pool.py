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

With process workers the trees themselves do not ride in that pickle at
all: the pool packs every request's ``parents``/``weights`` columns into
one :class:`~repro.core.forest.ArrayForest` wire buffer inside a
``multiprocessing.shared_memory`` segment and ships only tiny
``{"shm": index}`` markers.  Workers attach the segment, rebuild the
forest (one vectorised validation for the whole batch) and slice each
request's tree back out — zero pickling of element lists in either
direction.  Inline thread mode (``jobs=0``) and environments without
shared memory fall back to the plain pickle path transparently.
"""

from __future__ import annotations

import asyncio
import contextlib
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Mapping

import numpy as np

from ..api.errors import ProtocolError
from ..api.execution import (
    build_tree,
    execute_request,
    run_exact,
    run_paging,
    run_solve,
)
from ..api.outcome import error_envelope
from ..api.requests import parse_request
from ..core.arraytree import _MAX_TOTAL_WEIGHT
from ..core.engine import AUTO_THRESHOLD
from ..core.forest import ArrayForest
from ..core.tree import TreeError

__all__ = [
    "WorkerPool",
    "build_tree",
    "execute_payload",
    "execute_many",
    "execute_many_shm",
    "run_solve",
    "run_paging",
    "run_exact",
]


def execute_payload(
    payload: Mapping[str, Any], *, seed_rng: bool = True
) -> dict[str, Any]:
    """Worker entry point for one request payload (re-validates on arrival)."""
    try:
        request = parse_request(payload)
    except Exception as exc:  # defence in depth; the server validated already
        code = getattr(exc, "code", "internal")
        # ApiError.__str__ is "[code] message"; the envelope carries the
        # code separately, so ship the bare message
        return error_envelope(code, getattr(exc, "message", str(exc)))
    return _execute_guarded(request, seed_rng)


def _execute_guarded(request, seed_rng: bool, tree=None) -> dict[str, Any]:
    """:func:`execute_request`, with a crash confined to this request.

    Solver refusals are already ``unsolvable`` envelopes; anything else
    (a strategy bug, :class:`ExpansionLimitExceeded`, ...) becomes this
    request's own ``internal`` envelope instead of failing its whole
    micro-batch.
    """
    try:
        return execute_request(request, seed_rng=seed_rng, tree=tree)
    except Exception as exc:
        return error_envelope("internal", f"{type(exc).__name__}: {exc}")


def execute_many(
    payloads: list[Mapping[str, Any]], seed_rng: bool = True
) -> list[dict[str, Any]]:
    """Worker entry point for one micro-batch; one envelope per payload."""
    return [execute_payload(p, seed_rng=seed_rng) for p in payloads]


# --------------------------------------------------------------------- #
# shared-memory transport: one ArrayForest buffer per micro-batch
# --------------------------------------------------------------------- #

#: default floor (total nodes per micro-batch) below which the batch is
#: pickled instead: a shared-memory segment costs two syscalls and a
#: worker-side forest rebuild per batch, which tiny batches cannot
#: amortise (measured crossover is a few thousand nodes; the win grows
#: with tree size — ~1.5-1.8x pool throughput at 2k-8k-node trees).
SHM_MIN_BATCH_NODES = 8_192


def _pack_batch(payloads: list[Mapping[str, Any]], min_nodes: int = 0):
    """Pack a micro-batch's trees into one shared-memory forest buffer.

    Returns ``(shm, stripped_payloads)`` — the payloads carry
    ``{"shm": index}`` markers instead of their tree columns — or
    ``None`` when there is nothing to pack, the batch is smaller than
    ``min_nodes`` total, or shared memory is unavailable (the caller
    falls back to the pickle path, where any malformed payload still
    earns its proper error envelope).
    """
    from multiprocessing import shared_memory

    trees: list[tuple[Any, Any]] = []
    stripped: list[dict[str, Any]] = []
    for payload in payloads:
        tree = payload.get("tree") if isinstance(payload, Mapping) else None
        if (
            isinstance(tree, Mapping)
            and isinstance(tree.get("parents"), (list, tuple))
            and isinstance(tree.get("weights"), (list, tuple))
            and len(tree["parents"]) == len(tree["weights"])
            and len(tree["parents"]) > 0
        ):
            replaced = dict(payload)
            replaced["tree"] = {"shm": len(trees)}
            trees.append((tree["parents"], tree["weights"]))
            stripped.append(replaced)
        else:
            stripped.append(dict(payload))
    if not trees or sum(len(p) for p, _ in trees) < min_nodes:
        return None
    try:
        offsets = np.zeros(len(trees) + 1, dtype=np.int64)
        parents = [np.asarray(p, dtype=np.int64) for p, _ in trees]
        weights = [np.asarray(w, dtype=np.int64) for _, w in trees]
        # Trees the worker-side forest rebuild would reject must not ride
        # the segment: TaskTree accepts arbitrary-precision weights, the
        # forest only int64 budgets — the pickle path handles those, and
        # a rejected forest would poison the whole batch with errors.
        if (
            sum(float(np.sum(c, dtype=np.float64)) for c in weights)
            > _MAX_TOTAL_WEIGHT
        ):
            return None
        np.cumsum([len(c) for c in parents], out=offsets[1:])
        total = int(offsets[-1])
        words = 2 + len(offsets) + 2 * total
        shm = shared_memory.SharedMemory(create=True, size=words * 8)
    except (OSError, ValueError, OverflowError):
        return None  # no /dev/shm, out-of-range values, ... — pickle instead
    try:
        buf = np.ndarray((words,), dtype=np.int64, buffer=shm.buf)
        buf[0] = len(trees)
        buf[1] = total
        head = 2 + len(offsets)
        buf[2:head] = offsets
        np.concatenate(parents, out=buf[head : head + total])
        np.concatenate(weights, out=buf[head + total :])
        del buf  # release the exported view: close()/unlink() need it gone
    except BaseException:
        _release_shm(shm)
        raise
    return shm, stripped


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


def _execute_shm_payload(
    payload: Mapping[str, Any], forest: ArrayForest, index: int, seed_rng: bool
) -> dict[str, Any]:
    """Run one request whose tree lives in the batch forest."""
    if not 0 <= index < forest.n_trees:
        return error_envelope("internal", f"no tree {index} in batch forest")
    a = int(forest.offsets[index])
    b = int(forest.offsets[index + 1])
    try:
        request = parse_request(
            payload,
            trusted_tree=(forest._parents[a:b], forest._weights[a:b]),
        )
        # Mirror build_tree: the forest already holds every derived
        # buffer, so a large request's ArrayTree is a plain slice copy.
        if b - a >= AUTO_THRESHOLD:
            tree = forest.tree(index)
        else:
            tree = forest.task_tree(index)
    except ProtocolError as exc:
        return error_envelope(exc.code, exc.message)
    except Exception as exc:  # defence in depth, like execute_payload
        return error_envelope("internal", str(exc))
    return _execute_guarded(request, seed_rng, tree)


def execute_many_shm(
    shm_name: str, payloads: list[Mapping[str, Any]], seed_rng: bool = True
) -> list[dict[str, Any]]:
    """Worker entry point for a micro-batch shipped as a forest buffer.

    Attaches the segment, copies the (small) batch blob out and detaches
    immediately — no lifetime coupling with the server's unlink — then
    rebuilds the :class:`~repro.core.forest.ArrayForest` and executes
    every payload against its tree slice.  Payloads without a marker
    (no tree to pack) run exactly like :func:`execute_many`.
    """
    try:
        shm = _attach_shm_untracked(shm_name)
    except (OSError, ValueError) as exc:
        return [
            error_envelope("internal", f"shared-memory batch lost: {exc}")
        ] * len(payloads)
    try:
        blob = bytes(shm.buf)
    finally:
        shm.close()
    try:
        forest = ArrayForest.from_packed(blob)
    except TreeError as exc:
        return [
            error_envelope("internal", f"bad shared-memory batch: {exc}")
        ] * len(payloads)
    out = []
    for payload in payloads:
        marker = payload.get("tree") if isinstance(payload, Mapping) else None
        if isinstance(marker, Mapping) and "shm" in marker:
            out.append(
                _execute_shm_payload(payload, forest, marker["shm"], seed_rng)
            )
        else:
            out.append(execute_payload(payload, seed_rng=seed_rng))
    return out


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
        a :class:`repro.obs.MetricsRegistry` to count batches into
        (``pool_batches_total{transport=shm|pickle}``); defaults to the
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
        self.jobs = jobs
        self.shm_transport = bool(shm_transport) and jobs >= 1
        self.shm_min_nodes = shm_min_nodes
        #: batches actually shipped via shared memory (observability)
        self.shm_batches = 0
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

    async def run_batch(
        self, payloads: list[Mapping[str, Any]]
    ) -> list[dict[str, Any]]:
        """Execute one micro-batch without blocking the event loop."""
        loop = asyncio.get_running_loop()
        payloads = list(payloads)
        if self.shm_transport:
            # pack on the default thread executor: column conversion and
            # the shm_open syscall must not stall the server's event loop
            pack_future = loop.run_in_executor(
                None, _pack_batch, payloads, self.shm_min_nodes
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
                        self._executor, execute_many_shm, shm.name, stripped, True
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
            self._executor, execute_many, payloads, self.jobs >= 1
        )

    def shutdown(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)
