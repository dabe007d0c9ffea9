"""Traversals: the solution object of the MinIO problem.

A *traversal* (Section 3.1 of the paper) is a pair ``(sigma, tau)``:

* ``sigma`` — a permutation of the tasks, topological with respect to the
  tree (every child before its parent);
* ``tau``   — the I/O function: ``tau[i]`` units of node *i*'s output are
  written to disk right after *i* completes and read back right before
  *i*'s parent executes.

Validity (the paper's three conditions) is checked by :func:`validate`,
which is deliberately independent from the FiF simulator so the two can
cross-check each other in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .tree import TaskTree

__all__ = ["Traversal", "InvalidTraversal", "validate", "is_postorder"]


class InvalidTraversal(ValueError):
    """A traversal violating one of the three validity conditions."""


@dataclass(frozen=True)
class Traversal:
    """An execution order plus its per-node I/O amounts.

    Attributes
    ----------
    schedule:
        node ids in execution order (``schedule[t]`` runs at step ``t``).
    io:
        ``io[i]`` = amount of node *i*'s output written to disk
        (:math:`\\tau(i)`); index-aligned with the tree nodes.
    """

    schedule: tuple[int, ...]
    io: tuple[int, ...]

    @property
    def io_volume(self) -> int:
        """Total write volume :math:`\\sum_i \\tau(i)` (reads are symmetric)."""
        return sum(self.io)

    def performance(self, memory: int) -> float:
        """The paper's Section 6 metric ``(M + io) / M``.

        1.0 means no I/O at all; 2.0 means a full memory's worth of writes.
        """
        return (memory + self.io_volume) / memory

    def position(self) -> dict[int, int]:
        """Map node id → execution step."""
        return {v: t for t, v in enumerate(self.schedule)}

    @staticmethod
    def from_schedule(schedule: Sequence[int], io: Sequence[int]) -> "Traversal":
        return Traversal(tuple(schedule), tuple(io))


def validate(tree: TaskTree, traversal: Traversal, memory: int) -> None:
    """Check the three validity conditions; raise :class:`InvalidTraversal` otherwise.

    1. ``schedule`` is a topological permutation of all nodes;
    2. ``0 <= tau(i) <= w_i`` for all ``i``;
    3. at every step ``t`` executing node ``i``, the resident parts of the
       active outputs leave ``wbar_i`` units free:
       ``sum_{k active at t} (w_k - tau(k)) <= M - wbar_i``.
    """
    n = tree.n
    sched = traversal.schedule
    if len(sched) != n or sorted(sched) != list(range(n)):
        raise InvalidTraversal("schedule is not a permutation of the nodes")
    # one lookup per column, not one property call per node and use
    parents = tree.parents
    weights = tree.weights
    children = tree.children
    wbar = tree.wbar
    io = traversal.io

    pos = [0] * n
    for t, v in enumerate(sched):
        pos[v] = t
    for v, p in enumerate(parents):
        if p != -1 and pos[v] >= pos[p]:
            raise InvalidTraversal(
                f"node {v} scheduled at {pos[v]}, not before its parent "
                f"{p} at {pos[p]}"
            )

    if len(io) != n:
        raise InvalidTraversal("io function is not index-aligned with the tree")
    for v, amount in enumerate(io):
        if not 0 <= amount <= weights[v]:
            raise InvalidTraversal(
                f"io amount of node {v} out of range: {amount} not in "
                f"[0, {weights[v]}]"
            )

    # Memory condition.  Walk the schedule maintaining the resident total of
    # active outputs; children of the current step are *not* active at it
    # (their memory is accounted inside wbar).
    resident = 0
    for t, v in enumerate(sched):
        for c in children[v]:
            resident -= weights[c] - io[c]
        need = wbar[v] + resident
        if need > memory:
            raise InvalidTraversal(
                f"step {t} (node {v}) needs {need} > M={memory} "
                f"(wbar={wbar[v]}, resident={resident})"
            )
        if parents[v] != -1:
            resident += weights[v] - io[v]
    # (the root's output simply remains in memory; no condition on it)


def is_postorder(tree: TaskTree, schedule: Sequence[int]) -> bool:
    """True iff ``schedule`` never interleaves two sibling subtrees.

    Formal definition (Section 3.1): for any node ``i`` and any node ``k``
    outside the subtree of ``i``, ``k`` is scheduled either before or after
    the *whole* subtree of ``i``.  Equivalently: the steps of every subtree
    form a contiguous block ending at its root.
    """
    n = tree.n
    pos = [0] * n
    for t, v in enumerate(schedule):
        pos[v] = t
    # Bottom-up: the block of v is [min over subtree, pos[v]]; contiguity
    # holds iff the block size equals the subtree size and v comes last.
    low = [0] * n
    size = [0] * n
    for v in tree.bottom_up():
        lo, sz = pos[v], 1
        for c in tree.children[v]:
            if pos[c] > pos[v]:
                return False
            lo = min(lo, low[c])
            sz += size[c]
        if pos[v] - lo + 1 != sz:
            return False
        low[v], size[v] = lo, sz
    return True
