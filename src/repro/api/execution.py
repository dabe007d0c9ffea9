"""Request execution cores: one implementation behind every backend.

These functions are where a validated request actually turns into a
result — the *same* functions whether the caller is the in-process
:class:`~repro.api.backends.LocalBackend`, a worker process of the
service's pool, or the batch engine's shard workers.  That sharing is
the whole point: identical requests produce byte-identical payloads on
every surface, so cache entries written by one are served by all.

:func:`solve_forest` is the one solving function: it packs nothing
itself but solves every member of an
:class:`~repro.core.forest.ArrayForest`, each with its own strategy and
memory bound — schedules from a forest sweep or the list cores, one FiF
pass, one :func:`~repro.core.forest_kernels.forest_validate`.
:func:`execute_batch` calls it once per strategy of a
:class:`~repro.api.requests.BatchRequest`, :func:`execute_solves` once
per service micro-batch, and :func:`run_solve` is its one-member case.
``run_paging`` / ``run_exact`` mirror the corresponding CLI commands on
a tree from :func:`build_tree`, which picks the representation (object
tree vs flat :class:`~repro.core.arraytree.ArrayTree`) by size;
``execute_request`` wraps any runner in the uniform envelope with
content-derived RNG seeding.
"""

from __future__ import annotations

import random
from typing import Any, Sequence

import numpy as np

from ..analysis.bounds import MemoryBounds, memory_bounds
from ..core.arraytree import ArrayTree
from ..core.forest import ArrayForest
from ..core.forest_kernels import (
    ForestTraversals,
    forest_fif_io,
    forest_liu_sweep,
    forest_lower_bounds,
    forest_memory_bounds,
    forest_sweep_pays,
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
    "execute_solves",
    "run_exact",
    "run_paging",
    "run_solve",
    "solve_forest",
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

#: the validation bound of a member that failed: above every need, so its
#: placeholder traversal passes the shared check
_NO_BOUND = 2**63 - 1

#: the most nodes :func:`execute_solves` packs into one forest.  A
#: forest's working set grows by about 300 bytes a node, so an uncut
#: micro-batch of 16 trees of 20 000 nodes raised the worker's peak RSS by
#: 119 MB, where the one-request path added 16 MB.  At this budget the
#: same batch added 32 MB, below the 44 MB one request of the service's
#: 100 000-node limit adds on the one-request path; 2**17 added 52 MB.
#: ``service_cold``'s micro-batches (at most 16 trees of up to 1 024
#: nodes) fit in one forest.
_FOREST_MAX_NODES = 1 << 16


def build_tree(parents: Any, weights: Any) -> TaskTree | ArrayTree:
    """The tree object a request executes on, when the caller passes none.

    Large requests go straight to :class:`~repro.core.arraytree.ArrayTree`
    — vectorised construction, no per-node object graph.  Small requests
    build a ``TaskTree`` (below :data:`AUTO_THRESHOLD` its per-node loop
    beats numpy's fixed costs), as do weights beyond int64.  Either way
    the kernel cores run on the result.  Accepts Python sequences or
    numpy columns.
    """
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
    """Execute a ``solve`` request; mirrors ``repro-ioschedule solve``.

    The one-member case of :func:`solve_forest`.  A ``tree`` the caller
    built — or the ``TaskTree`` of a tree the forest refuses (weights
    beyond int64) — is solved alone instead: its registry strategy, then
    :func:`~repro.core.traversal.validate`.
    """
    from ..experiments.registry import get_algorithm

    if tree is None:
        try:
            forest = ArrayForest.from_pairs([(request.parents, request.weights)])
        except TreeError:
            tree = build_tree(request.parents, request.weights)
        else:
            traversals, errors = solve_forest(
                forest, [request.algorithm], [request.memory]
            )
            if errors:
                raise errors[0]
            return _solve_result(request, traversals[0])
    traversal = get_algorithm(request.algorithm)(tree, request.memory)
    validate(tree, traversal, request.memory)
    return _solve_result(request, traversal)


def _solve_result(request: SolveRequest, traversal: Traversal) -> dict[str, Any]:
    """The result payload of a solved ``solve`` request."""
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


def solve_forest(
    forest: ArrayForest,
    algorithms: Sequence[str],
    memories: Sequence[int],
    *,
    seeds: Sequence[int] | None = None,
) -> tuple[Sequence[Traversal], dict[int, Exception]]:
    """Solve member ``k`` of ``forest`` with ``algorithms[k]`` under ``memories[k]``.

    Every strategy is a schedule plus its FiF I/O function (Theorem 1),
    checked against the paper's three validity conditions:

    1. the schedules come from one forest sweep where one strategy
       covers the whole forest and its sweep pays
       (:func:`~repro.core.forest_kernels.forest_sweep_pays`), and
       otherwise from each member's registry scheduler
       (:data:`~repro.experiments.registry.SCHEDULERS`) on its list view
       (:meth:`~repro.core.forest.ArrayForest.member`);
    2. one FiF pass derives every member's I/O function;
    3. one :func:`~repro.core.forest_kernels.forest_validate` checks
       every member.

    A member whose strategy has no scheduler (``Portfolio``, the
    oracles, strategies registered at run time), or whose bound is below
    its ``LB``, runs its registry strategy alone on
    :meth:`~repro.core.forest.ArrayForest.tree` and is validated alone —
    a one-tree solve, refusals included.  ``seeds[k]``, when given,
    seeds :mod:`random` before member ``k``'s scheduler runs.

    Returns ``(traversals, errors)``.  ``errors`` maps each failing
    member to what a one-tree solve of it raises, in member order: first
    the errors raised while solving (a member solved alone includes its
    validation), then those of the shared validation.  ``traversals[k]``
    is member ``k``'s checked traversal for every other member.
    """
    mems = list(memories)
    lbs = forest_lower_bounds(forest)
    errors: dict[int, Exception] = {}
    algorithm = algorithms[0] if len(algorithms) else None
    if (
        all(a == algorithm for a in algorithms)
        and all(m >= lb for m, lb in zip(mems, lbs))
        and forest_sweep_pays(forest, algorithm)
    ):
        traversals: Sequence[Traversal] = forest_traversals(forest, algorithm, mems)
        bounds = mems
    else:
        traversals, bounds = _solve_members(
            forest, algorithms, mems, lbs, seeds, errors
        )
    try:
        forest_validate(forest, traversals, bounds)
    except InvalidTraversal:
        # rare: find every failing member, with its own scalar message
        for k in range(forest.n_trees):
            if k not in errors:
                try:
                    validate(forest.tree(k), traversals[k], bounds[k])
                except InvalidTraversal as exc:
                    errors[k] = exc
    return traversals, errors


def _solve_members(
    forest: ArrayForest,
    algorithms: Sequence[str],
    mems: list[int],
    lbs: list[int],
    seeds: Sequence[int] | None,
    errors: dict[int, Exception],
) -> tuple[ForestTraversals, list[int]]:
    """Each member's schedule on its own, then one FiF pass for all.

    Returns the traversal columns and the validation bounds; failing
    members are recorded in ``errors`` and hold a valid placeholder (the
    reversed BFS order, no I/O) under :data:`_NO_BOUND`.
    """
    from ..experiments.registry import SCHEDULERS, get_algorithm

    off = forest.offsets.tolist()
    schedule = np.empty(forest.total_nodes, dtype=np.int64)
    fif_bounds: list[int | None] = [None] * forest.n_trees  # None: no I/O
    bounds = list(mems)
    alone: dict[int, Traversal] = {}
    for k, (algorithm, memory) in enumerate(zip(algorithms, mems)):
        a, b = off[k], off[k + 1]
        if seeds is not None:
            random.seed(seeds[k])
        try:
            scheduler = SCHEDULERS.get(algorithm) if memory >= lbs[k] else None
            if scheduler is not None:
                schedule[a:b] = scheduler(forest.member(k), memory)
                fif_bounds[k] = memory
                continue
            tree = forest.tree(k)
            traversal = get_algorithm(algorithm)(tree, memory)
            validate(tree, traversal, memory)
        except Exception as exc:
            errors[k] = exc
            schedule[a:b] = list(forest.member(k).bottom_up())
            bounds[k] = _NO_BOUND
            continue
        alone[k] = traversal
        schedule[a:b] = traversal.schedule
    io = forest_fif_io(forest, schedule, fif_bounds)
    for k, traversal in alone.items():
        io[off[k] : off[k + 1]] = traversal.io
    return ForestTraversals(forest.offsets.copy(), schedule, io), bounds


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


def execute_solves(
    requests: Sequence[Request], *, seed_rng: bool = True
) -> list[dict[str, Any] | None]:
    """The envelopes of a micro-batch's solve requests, from one forest.

    Every untraced ``solve`` request whose tree
    :class:`~repro.core.forest.ArrayForest` accepts becomes a forest
    member, and one :func:`solve_forest` call solves the forest; a batch
    of trees beyond :data:`_FOREST_MAX_NODES` nodes in all is cut into
    consecutive forests of at most that many (or one large tree each).
    Each envelope is byte-identical to :func:`execute_request`'s,
    refusals included (``unsolvable``, same text).  ``seed_rng`` seeds
    :mod:`random` from each member's content address before its
    scheduler runs — the contract of :func:`execute_request`.

    A member that fails outside :data:`UNSOLVABLE_ERRORS` is its own
    ``internal`` envelope.  An entry is ``None`` where this call gives no
    answer: other request kinds, traced requests (their stage timings
    are their own), and every row of a forest that refuses one of its
    trees (weights beyond int64, say).  The caller runs those one at a
    time.
    """
    out: list[dict[str, Any] | None] = [None] * len(requests)
    rows: list[int] = []
    nodes = 0
    for i, request in enumerate(requests):
        if (
            request.kind != SolveRequest.kind
            or getattr(request, "trace", None) is not None
        ):
            continue
        n = len(request.parents)
        if rows and nodes + n > _FOREST_MAX_NODES:
            _solve_rows(requests, rows, seed_rng, out)
            rows, nodes = [], 0
        rows.append(i)
        nodes += n
    if rows:
        _solve_rows(requests, rows, seed_rng, out)
    return out


def _solve_rows(
    requests: Sequence[Request],
    rows: list[int],
    seed_rng: bool,
    out: list[dict[str, Any] | None],
) -> None:
    """Solve ``requests[i]`` for ``i`` in ``rows`` on one forest into ``out``."""
    try:
        forest = ArrayForest.from_pairs(
            [(requests[i].parents, requests[i].weights) for i in rows]
        )
    except TreeError:
        return  # a tree beyond int64 (say): the caller runs every row alone
    members = [requests[i] for i in rows]
    keys = [request.key() for request in members]
    traversals, errors = solve_forest(
        forest,
        [request.algorithm for request in members],
        [request.memory for request in members],
        seeds=[unit_seed(key) for key in keys] if seed_rng else None,
    )
    for k, (i, request, key) in enumerate(zip(rows, members, keys)):
        exc = errors.get(k)
        if exc is None:
            out[i] = ok_envelope(_solve_result(request, traversals[k]), key=key)
        else:
            code = "unsolvable" if isinstance(exc, UNSOLVABLE_ERRORS) else "internal"
            out[i] = error_envelope(code, f"{type(exc).__name__}: {exc}")


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
    and each strategy is one :func:`solve_forest` call — a forest sweep
    where it pays, the list cores per tree otherwise, one FiF pass and
    one :func:`~repro.core.forest_kernels.forest_validate` pass.  Both
    paths produce byte-identical payloads; trees beyond the forest's
    int64 budgets (e.g. huge weights) take the per-tree path.
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
    bounds and ``OptMinMem``, and one :func:`solve_forest` call per
    strategy — one FiF pass, one :func:`forest_validate` — solves every
    tree.  Kernel strategies stay in column form end to end: their I/O
    volumes are summed from the I/O column :func:`forest_validate`
    checked.  The first failing tree's error is raised, as a per-tree
    loop would raise it.
    """
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
        traversals, errors = solve_forest(forest, [a] * forest.n_trees, mems)
        if errors:
            raise next(iter(errors.values()))
        if isinstance(traversals, ForestTraversals):
            io[a].extend(traversals.io_volumes)  # summed from the checked io
        else:
            io[a].extend(t.io_volume for t in traversals)
