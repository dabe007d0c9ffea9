"""The paper's novel heuristics: ``FULLRECEXPAND`` and ``RECEXPAND``.

Algorithm 2 (Section 5).  Idea: ``OPTMINMEM`` is a good scheduler but a
poor I/O planner — when its schedule overflows the memory, the FiF policy
reveals *where* I/O is unavoidable.  The heuristic makes that I/O explicit
by *expanding* the victim node inside the tree (see
:mod:`repro.core.expansion`) and re-runs ``OPTMINMEM``, which can now plan
around the eviction.  Processing the tree bottom-up (each subtree first
made I/O-free by its own expansions) keeps decisions local.

Per node ``r`` of the original tree (children before parents)::

    while OPTMINMEM(subtree of r) needs more than M:
        tau  <- FiF I/O function of the OPTMINMEM schedule
        i    <- node with tau(i) > 0 whose parent is scheduled latest
        expand i by tau(i)

``FULLRECEXPAND`` iterates until the subtree fits — possibly a
pseudo-polynomial number of iterations (the paper notes the loop count can
depend on the weights, not just on ``n``).  ``RECEXPAND`` caps the loop at
**2 iterations per node**; the resulting tree may still need I/O, which is
simply left to the FiF policy of the final schedule.

Both the while-loop's FiF passes and the two final ones run
:func:`repro.core.kernels.simulate_fif_core` on the lists the
:class:`~repro.core.expansion.ExpansionTree` keeps current (subtree
schedules included), and ``OPTMINMEM`` is the incremental
:class:`~repro.algorithms.liu.LiuSolver` over the same combine step as
the list cores.

The reported solution transposes the final ``OPTMINMEM`` schedule of the
expanded tree back to the original nodes and re-derives the I/O function
with FiF on the *original* tree.  This never costs more than the sum of
expansions plus the residual FiF I/O on the expanded tree (the expanded
execution is a witness for the original one with the same write volume,
and FiF is optimal for a fixed schedule — Theorem 1); both accountings are
returned so the invariant can be tested.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.expansion import ExpansionTree
from ..core.kernels import simulate_fif_core
from ..core.traversal import Traversal
from ..core.tree import TaskTree
from .liu import LiuSolver

__all__ = [
    "RecExpandResult",
    "full_rec_expand",
    "rec_expand",
    "VICTIM_RULES",
    "ExpansionLimitExceeded",
]


class ExpansionLimitExceeded(RuntimeError):
    """Safety valve: FULLRECEXPAND exceeded its global iteration budget."""


@dataclass(frozen=True)
class RecExpandResult:
    """Everything the heuristic produced.

    ``traversal.io_volume`` (FiF on the original tree under the final
    schedule) is the headline number; ``expanded_io + residual_io`` is the
    paper's accounting (sum of expansions, plus — for RecExpand only —
    whatever FiF still pays on the expanded tree).
    """

    traversal: Traversal
    #: I/O volume of the returned traversal (the reported performance)
    io_volume: int
    #: total volume forced through expansions
    expanded_io: int
    #: FiF I/O remaining on the final expanded tree (0 for FullRecExpand)
    residual_io: int
    #: number of expansion operations applied
    expansions: int
    #: total while-loop iterations over all nodes
    iterations: int
    #: node count of the final expanded tree
    expanded_tree_size: int


#: victim-selection rules for the Line-6 choice of Algorithm 2; each maps
#: (FiF io dict, schedule positions, expansion tree) -> victim node.
VICTIM_RULES = {
    # the paper's rule: the node whose parent is scheduled the latest
    "parent-latest": lambda io, pos, xt: max(io, key=lambda v: pos[xt.parents[v]]),
    # the node evicted first (parent scheduled earliest)
    "parent-earliest": lambda io, pos, xt: min(io, key=lambda v: pos[xt.parents[v]]),
    # the node carrying the largest I/O amount
    "largest-io": lambda io, pos, xt: max(io, key=lambda v: (io[v], pos[xt.parents[v]])),
    # arbitrary but deterministic: smallest node id
    "first": lambda io, pos, xt: min(io),
}


def _expand_subtree(
    xt: ExpansionTree,
    solver: LiuSolver,
    subroot: int,
    memory: int,
    iteration_cap: int | None,
    global_budget: list[int],
    victim_rule,
) -> int:
    """Run the while-loop of Algorithm 2 at one node.  Returns iterations."""
    iterations = 0
    while iteration_cap is None or iterations < iteration_cap:
        if solver.peak(subroot) <= memory:
            break
        if global_budget[0] <= 0:
            raise ExpansionLimitExceeded(
                "FULLRECEXPAND used up its global iteration budget; "
                "pass a larger max_total_iterations"
            )
        global_budget[0] -= 1
        iterations += 1

        schedule = solver.schedule(subroot)
        io = _fif(xt, schedule, memory)[0]
        pos = dict(zip(schedule, range(len(schedule))))
        victim = victim_rule(io, pos, xt)
        dirty = xt.expand(victim, io[victim])
        solver.invalidate_from(dirty)
    return iterations


def _fif(tree, schedule, memory: int) -> tuple[dict[int, int], int, int]:
    """FiF on ``tree``'s CSR lists: an expansion tree's, or the original's."""
    lists = tree if isinstance(tree, ExpansionTree) else tree.core_lists()
    return simulate_fif_core(
        len(lists.weights),
        lists.weights,
        lists.parents,
        lists.start,
        lists.cindex,
        lists.wbar,
        schedule,
        memory,
    )


def full_rec_expand(
    tree: TaskTree,
    memory: int,
    *,
    iteration_cap: int | None = None,
    max_total_iterations: int | None = None,
    victim_rule: str = "parent-latest",
) -> RecExpandResult:
    """``FULLRECEXPAND`` (Algorithm 2); ``iteration_cap`` yields the variants.

    Parameters
    ----------
    tree, memory:
        the instance.  ``memory`` must be at least ``max wbar_i``.
    iteration_cap:
        per-node while-loop bound; ``None`` reproduces FULLRECEXPAND,
        ``2`` reproduces RECEXPAND (use :func:`rec_expand`).
    max_total_iterations:
        global safety budget for the uncapped variant (default
        ``50 * n + 1000``); exceeding it raises
        :class:`ExpansionLimitExceeded` rather than looping unboundedly.
    victim_rule:
        which node to expand among those with ``tau > 0`` (see
        :data:`VICTIM_RULES`); the paper's choice is ``"parent-latest"``.
        The alternatives exist for the ablation benchmarks.
    """
    if memory < tree.min_feasible_memory():
        raise ValueError(
            f"M={memory} below the minimal feasible memory "
            f"{tree.min_feasible_memory()}"
        )
    try:
        rule = VICTIM_RULES[victim_rule]
    except KeyError:
        raise KeyError(
            f"unknown victim rule {victim_rule!r}; available: {sorted(VICTIM_RULES)}"
        ) from None

    xt = ExpansionTree(tree)
    solver = LiuSolver(xt)
    if max_total_iterations is None:
        max_total_iterations = 50 * tree.n + 1000
    budget = [max_total_iterations]

    iterations = 0
    # Children before parents == the recursion order of Algorithm 2.  When
    # node r is processed, everything below it is already expanded and, for
    # the uncapped variant, I/O-free; expansions triggered at r splice new
    # nodes strictly below r, so cached segments of untouched subtrees stay
    # valid and only the path to r is re-solved per iteration.
    for r in tree.bottom_up():
        iterations += _expand_subtree(
            xt, solver, r, memory, iteration_cap, budget, rule
        )

    final_schedule = solver.schedule(xt.root)
    residual = _fif(xt, final_schedule, memory)[1]
    original_schedule = xt.restrict_schedule(final_schedule)
    io, io_volume, _peak = _fif(tree, original_schedule, memory)
    dense = [0] * tree.n
    for v, amount in io.items():
        dense[v] = amount

    return RecExpandResult(
        traversal=Traversal(tuple(original_schedule), tuple(dense)),
        io_volume=io_volume,
        expanded_io=xt.expanded_io,
        residual_io=residual,
        expansions=xt.num_expansions,
        iterations=iterations,
        expanded_tree_size=xt.n,
    )


def rec_expand(tree: TaskTree, memory: int) -> RecExpandResult:
    """``RECEXPAND``: Algorithm 2 with the while-loop capped at 2 iterations.

    Polynomial (at most ``2n`` expansions) and, per the paper's Section 6,
    within a few percent of ``FULLRECEXPAND`` on the SYNTH dataset.
    """
    return full_rec_expand(tree, memory, iteration_cap=2)
