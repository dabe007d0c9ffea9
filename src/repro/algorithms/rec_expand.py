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

``OPTMINMEM`` is :func:`repro.core.kernels.liu_fill`, the list cores'
bottom-up solver, on the lists the
:class:`~repro.core.expansion.ExpansionTree` keeps current.  One pass
over the original tree fills a segment store indexed by node id and
stops only at nodes whose subtree needs more than ``M``; there the
while-loop runs, and after each expansion one more fill re-solves the
path from the changed node up.  Every FiF pass runs
:func:`repro.core.kernels.simulate_fif_core` (subtree schedules
included).  The residual pass on the final expanded tree is skipped
when its root hill fits ``M``: the hill is the unbounded FiF peak of the
schedule, so FiF would evict nothing.

The reported solution transposes the final ``OPTMINMEM`` schedule of the
expanded tree back to the original nodes and re-derives the I/O function
with FiF on the *original* tree.  This never costs more than the sum of
expansions plus the residual FiF I/O on the expanded tree (the expanded
execution is a witness for the original one with the same write volume,
and FiF is optimal for a fixed schedule — Theorem 1); both accountings are
returned so the invariant can be tested.  :func:`rec_expand_schedule`
stops at the transposed schedule: the registry applies that FiF pass
itself, so a many-tree caller runs it once for all its trees.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.expansion import ExpansionTree
from ..core.kernels import flatten_rope, liu_fill, simulate_fif_core
from ..core.traversal import Traversal
from ..core.tree import TaskTree

__all__ = [
    "RecExpandResult",
    "full_rec_expand",
    "rec_expand",
    "rec_expand_schedule",
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


def _schedule(segments) -> list[int]:
    """The execution order of one node's ``(hill, valley, rope)`` segments."""
    out: list[int] = []
    for _hill, _valley, nodes in segments:
        flatten_rope(nodes, out)
    return out


def _fif(tree, schedule, memory: int) -> tuple[dict[int, int], int, int]:
    """FiF on ``tree``'s CSR lists: an expansion tree's, or the original's."""
    lists = tree.core_lists()
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


def _expand(
    tree,
    memory: int,
    iteration_cap: int | None,
    max_total_iterations: int | None,
    victim_rule: str,
):
    """Algorithm 2's expansion loop: ``(expansion tree, root segments,
    while-loop iterations)``."""
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
    if max_total_iterations is None:
        max_total_iterations = 50 * tree.n + 1000
    budget = max_total_iterations

    weights, start, cindex, parents = xt.weights, xt.start, xt.cindex, xt.parents
    # Segments per node of the expansion tree, kept (not consumed) so a
    # path can be re-solved above unchanged subtrees; a splice appends
    # two slots.
    segs: list = [None] * xt.n
    # Children before parents == the recursion order of Algorithm 2.  The
    # fill stops at each node whose subtree needs more than M and resumes
    # after it.  By then everything below r is expanded and, for the
    # uncapped variant, I/O-free; expansions at r splice nodes strictly
    # below r, so only the path from the changed node to r is re-solved
    # per iteration, and r's ancestors are still to come in the order.
    order = tree.bottom_up()
    iterations = 0
    while (
        r := liu_fill(weights, start, cindex, order, segs, keep=True, limit=memory)
    ) is not None:
        done = 0
        while iteration_cap is None or done < iteration_cap:
            if segs[r][0][0] <= memory:
                break
            if budget <= 0:
                raise ExpansionLimitExceeded(
                    "FULLRECEXPAND used up its global iteration budget; "
                    "pass a larger max_total_iterations"
                )
            budget -= 1
            done += 1

            schedule = _schedule(segs[r])
            io = _fif(xt, schedule, memory)[0]
            pos = dict(zip(schedule, range(len(schedule))))
            victim = rule(io, pos, xt)
            dirty = xt.expand(victim, io[victim])
            if dirty != victim:
                # a splice: victim -> residual -> read-back (== dirty)
                segs += (None, None)
                dirty = parents[victim]
            path = [dirty]
            while dirty != r:
                dirty = parents[dirty]
                path.append(dirty)
            liu_fill(weights, start, cindex, path, segs, keep=True)
        iterations += done

    return xt, segs[xt.root], iterations


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
    xt, top, iterations = _expand(
        tree, memory, iteration_cap, max_total_iterations, victim_rule
    )
    final_schedule = _schedule(top)
    # Liu's root hill is the peak of final_schedule with nothing evicted:
    # at most M, FiF never evicts and the residual is exactly 0.
    residual = 0 if top[0][0] <= memory else _fif(xt, final_schedule, memory)[1]
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


def rec_expand_schedule(
    tree: TaskTree, memory: int, *, iteration_cap: int | None = 2
) -> list[int]:
    """The schedule of :func:`full_rec_expand` alone, on the original nodes.

    ``iteration_cap=2`` is ``RECEXPAND``'s, ``None`` ``FULLRECEXPAND``'s.
    The registry derives the I/O function from it with FiF — the same
    function :func:`full_rec_expand` reports — so a many-tree caller can
    run that FiF pass once for all its trees.  Skips the residual FiF on
    the expanded tree, which only the paper's accounting needs.
    """
    xt, top, _iterations = _expand(tree, memory, iteration_cap, None, "parent-latest")
    return xt.restrict_schedule(_schedule(top))
