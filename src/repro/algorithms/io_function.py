"""Theorem 2: from an I/O function back to a schedule.

Given a tree ``G``, a memory bound ``M`` and an I/O function ``tau`` for
which *some* valid schedule exists, a valid schedule can be computed in
polynomial time: expand every node with ``tau(i) > 0`` (making the writes
and reads explicit tasks, :mod:`repro.core.expansion`) and run the optimal
MinMem algorithm on the expanded tree.  The expanded execution uses as
little memory as any schedule constrained to ``tau`` can, so it fits in
``M`` exactly when ``tau`` is feasible.
"""

from __future__ import annotations

from typing import Sequence

from ..core.expansion import expand_tree
from ..core.traversal import Traversal
from ..core.tree import TaskTree
from .liu import opt_min_mem

__all__ = ["schedule_for_io_function"]


def schedule_for_io_function(
    tree: TaskTree, io: Sequence[int], memory: int
) -> Traversal | None:
    """A valid traversal ``(sigma, tau=io)``, or ``None`` if none exists.

    Implements Theorem 2.  The returned traversal uses exactly the given
    I/O function; its schedule is the restriction of Liu's optimal
    schedule on the expanded tree to the original nodes.
    """
    expanded, bookkeeping = expand_tree(tree, io)
    liu_schedule, peak = opt_min_mem(expanded)
    if peak > memory:
        return None
    schedule = bookkeeping.restrict_schedule(liu_schedule)
    return Traversal(tuple(schedule), tuple(io))
