"""Exact MinIO by branch-and-bound with antichain memoization.

The paper leaves the complexity of MINIO open (Section 4.5); no
polynomial algorithm is known.  This module provides an *exact* solver
that is far stronger than naive enumeration of all ``n!`` topological
orders, making optimality gaps measurable on instances of 15–25 nodes:

* **State space.**  After executing a set ``S`` of tasks, the *active*
  nodes (executed, parent not executed) form an antichain that uniquely
  determines ``S`` (``S`` is the union of their subtrees), so search
  states are keyed by the active antichain alone.
* **Lazy, concentrated evictions.**  It is never beneficial to evict
  before memory overflows, and for any *fixed* completion the optimal
  eviction pattern is Furthest-in-the-Future (Theorem 1), which always
  empties some victims completely and at most one partially.  Branching
  over these "concentrated" outcomes — a fully-evicted subset plus one
  partial victim — therefore covers an optimal solution.
* **Dominance.**  Two partial solutions over the same antichain compare
  by (cost so far, per-node resident amounts): less cost *and* pointwise
  less resident data is never worse, because every future step's memory
  pressure is pointwise lower.  Dominated states are pruned.
* **Bounding.**  The incumbent starts at the best heuristic solution
  (RecExpand / PostOrderMinIO / OptMinMem), and the global lower bound
  ``max(0, Peak_incore − M)`` (any schedule's peak is at least Liu's
  optimum, and memory above ``M`` must be evicted) allows early proof of
  optimality.

The solver is exponential in the worst case — use :func:`exact_min_io`
for trees up to a few dozen nodes, as an oracle for tests and gap
studies, not inside dataset sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from ..core.simulator import fif_traversal
from ..core.traversal import Traversal
from ..core.tree import TaskTree
from .liu import opt_min_mem
from .postorder import postorder_min_io
from .rec_expand import rec_expand

__all__ = ["ExactResult", "SearchLimit", "exact_min_io", "optimality_gap"]

#: hard ceiling on accepted instances, independent of ``node_limit``:
#: the DFS recurses once per scheduled node, so this keeps the depth far
#: below the interpreter's recursion limit.  Instances anywhere near it
#: are unreachable in practice anyway (the state space is exponential
#: and ``max_states`` fires long before).
MAX_EXACT_NODES = 600


class SearchLimit(RuntimeError):
    """Raised when the state budget is exhausted before proving optimality."""


@dataclass(frozen=True)
class ExactResult:
    """Outcome of the exact search."""

    traversal: Traversal
    io_volume: int
    optimal: bool
    states_expanded: int
    lower_bound: int

    def certificate(self) -> str:
        status = "optimal" if self.optimal else "best-found (limit hit)"
        return (
            f"io={self.io_volume} [{status}], lower bound {self.lower_bound}, "
            f"{self.states_expanded} states expanded"
        )


def _heuristic_incumbent(
    tree: TaskTree, memory: int, liu_schedule: list[int]
) -> Traversal:
    """The best of the three polynomial strategies seeds the incumbent."""
    candidates = [
        fif_traversal(tree, liu_schedule, memory),
        fif_traversal(tree, postorder_min_io(tree, memory).schedule, memory),
        rec_expand(tree, memory).traversal,
    ]
    return min(candidates, key=lambda t: t.io_volume)


def exact_min_io(
    tree: TaskTree,
    memory: int,
    *,
    max_states: int = 2_000_000,
    node_limit: int = 64,
) -> ExactResult:
    """Solve MINIO exactly on ``tree`` under the bound ``memory``.

    Parameters
    ----------
    max_states:
        abort with :class:`SearchLimit` after expanding this many states
        (the incumbent found so far is attached to the exception).
    node_limit:
        refuse trees larger than this outright — the search is
        exponential, and a silent multi-hour run helps nobody.

    Raises
    ------
    ValueError
        if the tree exceeds ``node_limit`` or ``memory`` is infeasible.
    SearchLimit
        if ``max_states`` is exhausted before the search space is.
    """
    n = tree.n
    if n > node_limit:
        raise ValueError(
            f"tree has {n} nodes > node_limit={node_limit}; the exact solver "
            "is exponential — raise node_limit explicitly if you mean it"
        )
    if n > MAX_EXACT_NODES:
        raise ValueError(
            f"tree has {n} nodes > the exact solver's hard ceiling "
            f"{MAX_EXACT_NODES} (its search recurses once per node; anything "
            "this large is out of reach for an exponential search anyway)"
        )
    lb_feasible = tree.min_feasible_memory()
    if memory < lb_feasible:
        raise ValueError(f"memory {memory} < feasibility bound {lb_feasible}")

    weights = tree.weights
    children = tree.children
    parents = tree.parents
    wbar = tree.wbar

    liu_schedule, liu_peak = opt_min_mem(tree)
    incumbent = _heuristic_incumbent(tree, memory, liu_schedule)
    best_cost = incumbent.io_volume
    best_schedule: tuple[int, ...] = incumbent.schedule
    lower_bound = max(0, liu_peak - memory)
    if best_cost <= lower_bound:
        return ExactResult(incumbent, best_cost, True, 0, lower_bound)

    # DFS branch order: follow Liu's schedule so good incumbents come early.
    liu_pos = {v: t for t, v in enumerate(liu_schedule)}

    # Pareto memo: active antichain -> list of (cost, residency-tuple),
    # residency aligned with the sorted antichain.
    memo: dict[frozenset[int], list[tuple[int, tuple[int, ...]]]] = {}
    states_expanded = 0

    def dominated(key: frozenset[int], cost: int, res: tuple[int, ...]) -> bool:
        entries = memo.setdefault(key, [])
        for c, r in entries:
            if c <= cost and all(a <= b for a, b in zip(r, res)):
                return True
        entries[:] = [
            (c, r)
            for c, r in entries
            if not (cost <= c and all(a <= b for a, b in zip(res, r)))
        ]
        entries.append((cost, res))
        return False

    def search(
        active: dict[int, int],  # node -> resident amount (w - tau so far)
        remaining_children: list[int],  # per-node count of unexecuted children
        executed_count: int,
        cost: int,
        schedule: list[int],
    ) -> None:
        nonlocal best_cost, best_schedule, states_expanded
        if cost >= best_cost:
            return
        if executed_count == n:
            best_cost = cost
            best_schedule = tuple(schedule)
            return

        states_expanded += 1
        if states_expanded > max_states:
            raise SearchLimit(
                f"exact search exceeded {max_states} states "
                f"(incumbent io={best_cost})"
            )

        key = frozenset(active)
        res_vec = tuple(active[v] for v in sorted(active))
        if dominated(key, cost, res_vec):
            return

        # Executable nodes: unexecuted with every child already executed.
        candidates = [
            v
            for v in range(n)
            if remaining_children[v] == 0 and v not in schedule_set
        ]
        candidates.sort(key=lambda v: liu_pos[v])

        for v in candidates:
            kids = children[v]
            others = [k for k in active if parents[k] != v]
            resident_others = sum(active[k] for k in others)
            need = wbar[v] + resident_others
            excess = need - memory

            # Enumerate eviction outcomes (possibly just "no eviction").
            outcomes: list[tuple[int, dict[int, int]]] = []
            if excess <= 0:
                outcomes.append((0, {}))
            else:
                evictable = [k for k in others if active[k] > 0]
                total_evictable = sum(active[k] for k in evictable)
                if total_evictable < excess:
                    continue  # this move is infeasible right now
                evictable.sort(key=lambda k: -active[k])
                for size in range(len(evictable) + 1):
                    for subset in combinations(evictable, size):
                        full = sum(active[k] for k in subset)
                        if full >= excess:
                            if full == excess:
                                outcomes.append(
                                    (excess, {k: active[k] for k in subset})
                                )
                            continue
                        part = excess - full
                        for j in evictable:
                            if j in subset or active[j] < part:
                                continue
                            ev = {k: active[k] for k in subset}
                            ev[j] = part
                            outcomes.append((excess, ev))

            for extra, evictions in outcomes:
                new_cost = cost + extra
                if new_cost >= best_cost:
                    continue
                # Apply: evict, consume children, produce v.
                saved = {k: active[k] for k in evictions}
                for k, amount in evictions.items():
                    active[k] -= amount
                consumed = {k: active.pop(k) for k in kids}
                if parents[v] != -1:
                    active[v] = weights[v]
                remaining_children_parent_dec = False
                p = parents[v]
                if p != -1:
                    remaining_children[p] -= 1
                    remaining_children_parent_dec = True
                schedule.append(v)
                schedule_set.add(v)

                search(active, remaining_children, executed_count + 1, new_cost, schedule)

                # Undo.
                schedule_set.discard(v)
                schedule.pop()
                if remaining_children_parent_dec:
                    remaining_children[p] += 1
                active.pop(v, None)
                active.update(consumed)
                for k, amount in saved.items():
                    active[k] = amount

    remaining = [len(children[v]) for v in range(n)]
    schedule_set: set[int] = set()
    try:
        search({}, remaining, 0, 0, [])
    except SearchLimit:
        traversal = fif_traversal(tree, best_schedule, memory)
        raise SearchLimit(
            f"state budget exhausted; best found io={traversal.io_volume}"
        ) from None

    traversal = fif_traversal(tree, best_schedule, memory)
    # FiF on the recorded schedule can only improve on the branch costs.
    assert traversal.io_volume <= best_cost
    return ExactResult(
        traversal=traversal,
        io_volume=traversal.io_volume,
        optimal=True,
        states_expanded=states_expanded,
        lower_bound=lower_bound,
    )


def optimality_gap(tree: TaskTree, memory: int, io_volume: int, **kwargs) -> float:
    """Relative gap of a heuristic's ``io_volume`` to the exact optimum.

    Returns 0.0 when the heuristic is optimal; uses the paper's
    ``(M + io) / M`` performance normalisation so a gap of 0.05 means the
    heuristic's performance is 5 % above optimal.
    """
    opt = exact_min_io(tree, memory, **kwargs).io_volume
    return (memory + io_volume) / (memory + opt) - 1.0
