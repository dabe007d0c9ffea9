"""Request execution cores: one implementation behind every backend.

These functions are where a validated request actually turns into a
result — the *same* functions whether the caller is the in-process
:class:`~repro.api.backends.LocalBackend`, a worker process of the
service's pool, or the batch engine's shard workers.  That sharing is
the whole point: identical requests produce byte-identical payloads on
every surface, so cache entries written by one are served by all.

``build_tree`` picks the tree representation (object tree vs flat
:class:`~repro.core.arraytree.ArrayTree`) by size — the kernel cores run
on either; ``run_solve`` /
``run_paging`` / ``run_exact`` mirror the corresponding CLI commands;
``execute_request`` wraps any of them in the uniform envelope with
content-derived RNG seeding; ``execute_batch`` solves a
:class:`~repro.api.requests.BatchRequest` through the forest kernels
(one :class:`~repro.core.forest.ArrayForest` per batch) with a
byte-identical per-tree fallback.
"""

from __future__ import annotations

import random
from typing import Any, Sequence

from ..analysis.bounds import MemoryBounds, memory_bounds
from ..core.arraytree import ArrayTree
from ..core.forest import ArrayForest
from ..core.forest_kernels import (
    FOREST_STRATEGIES,
    ForestTraversals,
    forest_liu_sweep,
    forest_memory_bounds,
    forest_traversals,
    forest_validate,
)
from ..core.simulator import InfeasibleSchedule
from ..core.trace import schedule_trace
from ..core.traversal import InvalidTraversal, Traversal, validate
from ..core.tree import TaskTree, TreeError
from ..obs.trace import span, trace_context
from .outcome import error_envelope, ok_envelope
from .requests import (
    BatchRequest,
    ExactRequest,
    PagingRequest,
    Request,
    SolveRequest,
    unit_seed,
)

__all__ = [
    "UNSOLVABLE_ERRORS",
    "build_tree",
    "execute_batch",
    "execute_batch_request",
    "execute_request",
    "run_exact",
    "run_paging",
    "run_solve",
]

#: :func:`build_tree` makes an :class:`~repro.core.arraytree.ArrayTree`
#: (vectorised construction) from at least this many nodes, and a
#: :class:`~repro.core.tree.TaskTree`, whose cached lists the cores read
#: without a conversion, from fewer.  It picks a representation; both
#: run the same list cores.
AUTO_THRESHOLD = 512

#: the solver-refusal exceptions that map to the client-fault code
#: ``unsolvable`` (anything else is a genuine internal error and must
#: propagate).  One definition, shared by every envelope-wrapping site.
UNSOLVABLE_ERRORS = (InfeasibleSchedule, InvalidTraversal, ValueError, KeyError)


def build_tree(parents: Any, weights: Any) -> TaskTree | ArrayTree:
    """The tree object a request executes on, when the caller passes none.

    Large requests go straight to :class:`~repro.core.arraytree.ArrayTree`
    — vectorised construction, no per-node object graph.  Small requests
    build a ``TaskTree`` (below :data:`AUTO_THRESHOLD` its per-node loop
    beats numpy's fixed costs), as do weights beyond int64.  Either way
    the kernel cores run on the result.  Accepts Python sequences or
    numpy columns.
    """
    import numpy as np

    if len(parents) >= AUTO_THRESHOLD:
        try:
            return ArrayTree(parents, weights)
        except TreeError:
            pass  # e.g. weights beyond int64: the object tree handles them
    if isinstance(parents, np.ndarray):
        parents = parents.tolist()
        weights = weights.tolist()
    return TaskTree(parents, weights)


def run_solve(
    request: SolveRequest, *, tree: TaskTree | ArrayTree | None = None
) -> dict[str, Any]:
    """Execute a ``solve`` request; mirrors ``repro-ioschedule solve``."""
    from ..experiments.registry import get_algorithm

    if tree is None:
        tree = build_tree(request.parents, request.weights)
    traversal = get_algorithm(request.algorithm)(tree, request.memory)
    validate(tree, traversal, request.memory)
    result = {
        "kind": "solve",
        "algorithm": request.algorithm,
        "memory": request.memory,
        "io_volume": traversal.io_volume,
        "performance": traversal.performance(request.memory),
        "schedule": list(traversal.schedule),
        "io": {str(v): a for v, a in enumerate(traversal.io) if a},
    }
    if getattr(request, "trace_schedule", False):
        # the memory hill-valley curve + cumulative I/O, derived from the
        # solver's own outputs — inside the result so cache entries under
        # the flag-inclusive key always carry it
        trace = schedule_trace(
            request.parents, request.weights, traversal.schedule, traversal.io
        )
        result["schedule_trace"] = trace
        result["peak_memory"] = trace["peak_memory"]
    return result


def run_paging(
    request: PagingRequest, *, tree: TaskTree | ArrayTree | None = None
) -> dict[str, Any]:
    """Execute a ``paging`` request; mirrors ``repro-ioschedule paging``."""
    from ..experiments.registry import get_algorithm
    from ..io import HDD, estimate_time, paged_io

    if tree is None:
        tree = build_tree(request.parents, request.weights)
    schedule = get_algorithm(request.algorithm)(tree, request.memory).schedule
    rows = []
    for policy in request.policies:
        res = paged_io(
            tree,
            schedule,
            request.memory,
            page_size=request.page_size,
            policy=policy,
            seed=request.seed,
            trace=True,
        )
        rows.append(
            {
                "policy": policy,
                "write_pages": res.write_pages,
                "read_pages": res.read_pages,
                "write_units": res.write_units,
                "est_seconds": estimate_time(res.events, HDD).seconds,
            }
        )
    return {
        "kind": "paging",
        "algorithm": request.algorithm,
        "memory": request.memory,
        "page_size": request.page_size,
        "policies": rows,
    }


def run_exact(
    request: ExactRequest, *, tree: TaskTree | ArrayTree | None = None
) -> dict[str, Any]:
    """Execute an ``exact`` request; mirrors ``repro-ioschedule exact``."""
    from ..algorithms.exact import exact_min_io
    from ..experiments.registry import PAPER_ALGORITHMS, get_algorithm

    if tree is None:
        tree = build_tree(request.parents, request.weights)
    result = exact_min_io(
        tree,
        request.memory,
        max_states=request.max_states,
        node_limit=request.node_limit,
    )
    gaps: dict[str, dict[str, Any]] = {}
    for name in PAPER_ALGORITHMS:
        io = get_algorithm(name)(tree, request.memory).io_volume
        gap = (request.memory + io) / (request.memory + result.io_volume) - 1.0
        gaps[name] = {"io_volume": io, "gap": gap}
    return {
        "kind": "exact",
        "memory": request.memory,
        "io_volume": result.io_volume,
        "optimal": result.optimal,
        "lower_bound": result.lower_bound,
        "states_expanded": result.states_expanded,
        "certificate": result.certificate(),
        "gaps": gaps,
    }


_RUNNERS = {
    SolveRequest.kind: run_solve,
    PagingRequest.kind: run_paging,
    ExactRequest.kind: run_exact,
}


def execute_request(
    request: Request,
    *,
    seed_rng: bool = True,
    tree: TaskTree | ArrayTree | None = None,
) -> dict[str, Any]:
    """Run one validated request and wrap the outcome in an envelope.

    ``seed_rng`` seeds the process-global RNG from the request's content
    address — the same contract as the batch engine's shards, so
    identical requests behave identically on any worker.  It is disabled
    in inline (thread) mode, where concurrent batches share one
    interpreter: seeding there would interleave across threads (no
    determinism gained) and clobber the embedding process's RNG state.
    ``tree`` is the pre-built tree object, when the caller already
    materialised one (the service's workers build a ``TaskTree``).
    """
    key = request.key()
    if seed_rng:
        random.seed(unit_seed(key))
    trace_id = getattr(request, "trace", None)
    if trace_id is None:
        try:
            result = _RUNNERS[request.kind](request, tree=tree)
        except UNSOLVABLE_ERRORS as exc:
            return error_envelope("unsolvable", f"{type(exc).__name__}: {exc}")
        return ok_envelope(result, key=key)
    # traced request: time the solver stage into the request's breakdown
    with trace_context(trace_id) as trace:
        try:
            with span("solve"):
                result = _RUNNERS[request.kind](request, tree=tree)
        except UNSOLVABLE_ERRORS as exc:
            return error_envelope("unsolvable", f"{type(exc).__name__}: {exc}")
        return ok_envelope(result, key=key, timings=trace.stages)


def execute_batch_request(
    request: BatchRequest, *, seed_rng: bool = True
) -> dict[str, Any]:
    """Run one batch unit and wrap the outcome in an envelope.

    The :class:`~repro.api.requests.BatchRequest` counterpart of
    :func:`execute_request`, so the RNG-seeding and failure-
    discrimination contracts live here once for every backend:
    ``seed_rng`` seeds the process-global RNGs (``random`` *and*
    ``numpy``, matching the batch engine's shard workers) from the
    unit's content address, and solver refusals become the client-fault
    code ``unsolvable`` while anything else propagates as the internal
    error it is.
    """
    key = request.key()
    if seed_rng:
        import numpy as np

        seed = unit_seed(key)
        random.seed(seed)
        np.random.seed(seed)
    try:
        result = execute_batch(request)
    except UNSOLVABLE_ERRORS as exc:
        return error_envelope("unsolvable", f"{type(exc).__name__}: {exc}")
    return ok_envelope(result, key=key)


def execute_batch(request: BatchRequest) -> dict[str, Any]:
    """Solve every tree of a batch under one parameter set.

    The payload is the batch engine's column form — per-algorithm I/O
    volumes plus the memory bound and node count of every solved tree::

        {"io": {algorithm: [...]}, "memories": [...], "sizes": [...]}

    With ``request.forest`` set (the default) the batch solves through
    the forest layer: one :class:`~repro.core.forest.ArrayForest` packs
    all trees, the memory grid comes from one whole-forest bounds sweep,
    every kernel-backed strategy runs as a forest batch, and one
    :func:`~repro.core.forest_kernels.forest_validate` pass checks each
    strategy's traversals; strategies without a forest kernel (the
    RecExpand family) fall back to per-tree dispatch over the forest's
    member views.  Both paths produce byte-identical payloads; trees
    beyond the forest's int64 budgets (e.g. huge weights) take the
    per-tree path.
    """
    from ..experiments.registry import get_algorithm

    io: dict[str, list[int]] = {a: [] for a in request.algorithms}
    memories: list[int] = []
    sizes: list[int] = []
    forest = None
    if request.forest and request.trees:
        try:
            forest = ArrayForest.from_pairs(request.trees)
        except TreeError:
            forest = None  # beyond int64 budgets: the per-tree path copes
    if forest is not None:
        _execute_batch_forest(request, forest, io, memories, sizes)
    else:
        for parents, weights in request.trees:
            tree = TaskTree(parents, weights)
            memory = request.memory
            if memory is None:
                bounds = memory_bounds(tree)
                if not bounds.has_io_regime:
                    continue
                memory = bounds.grid()[request.bound]
            memories.append(memory)
            sizes.append(tree.n)
            for a in request.algorithms:
                traversal = get_algorithm(a)(tree, memory)
                validate(tree, traversal, memory)
                io[a].append(traversal.io_volume)
    return {
        "io": {a: list(v) for a, v in io.items()},
        "memories": memories,
        "sizes": sizes,
    }


def _execute_batch_forest(
    request: BatchRequest,
    forest: ArrayForest,
    io: dict[str, list[int]],
    memories: list[int],
    sizes: list[int],
) -> None:
    """The forest execution path of :func:`execute_batch` (same columns out).

    Solves on the forest it is given: one Liu sweep serves both the
    bounds and ``OptMinMem``, one :func:`forest_validate` pass checks
    each strategy, and members are materialised only for strategies
    without a forest kernel.  Kernel strategies stay in column form end
    to end: their I/O volumes are summed from the I/O column
    :func:`forest_validate` checked.
    """
    from ..experiments.registry import get_algorithm

    if request.memory is None:
        if "OptMinMem" in request.algorithms:
            forest_liu_sweep(forest)
        bounds = [
            MemoryBounds(lb=lb, peak_incore=peak)
            for lb, peak in forest_memory_bounds(forest)
        ]
        keep = [k for k, b in enumerate(bounds) if b.has_io_regime]
        if not keep:
            return
        mems = [bounds[k].grid()[request.bound] for k in keep]
        if len(keep) < forest.n_trees:
            forest = forest.subset(keep)
    else:
        mems = [request.memory] * forest.n_trees
    memories.extend(mems)
    sizes.extend(forest.sizes().tolist())
    for a in request.algorithms:
        traversals: Sequence[Traversal]
        if a in FOREST_STRATEGIES:
            traversals = forest_traversals(forest, a, mems)
        else:
            solve = get_algorithm(a)
            traversals = [solve(forest.tree(k), m) for k, m in enumerate(mems)]
        forest_validate(forest, traversals, mems)
        if isinstance(traversals, ForestTraversals):
            io[a].extend(traversals.io_volumes)  # summed from the checked io
        else:
            io[a].extend(t.io_volume for t in traversals)
