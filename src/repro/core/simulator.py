"""Out-of-core execution simulator with Furthest-in-the-Future eviction.

Theorem 1 of the paper: *given* a schedule ``sigma``, the I/O function
``tau`` obtained by evicting — whenever memory overflows — from the active
output whose parent executes furthest in the future is optimal for
``sigma``.  This is the offline analogue of Belady's MIN cache rule.

The simulator below implements exactly that policy.  It is the measuring
instrument of the whole reproduction: every scheduling algorithm produces
a schedule, and this module turns it into the minimal I/O volume that the
schedule can achieve, together with an optional step-by-step trace.

It simulates any tree with ``core_lists()`` — a
:class:`~repro.core.tree.TaskTree`, an
:class:`~repro.core.arraytree.ArrayTree`, or the mutable
:class:`~repro.core.expansion.ExpansionTree` of the RecExpand heuristics
— on full or *subtree* schedules (the root of the subtree has its parent
outside the schedule: its output simply stays resident, which is
harmless because the subtree root is always scheduled last).

Every simulation, traced or not, runs the one list core
:func:`repro.core.kernels.simulate_fif_core`; a traced run passes it a
list that receives one step record per executed node.  Its answers are
checked against the frozen golden corpus (I/O functions in eviction
order, traced steps), against the page-level Belady pager of
:mod:`repro.io.pager` (the I/O volume), and on small trees against
other valid I/O functions of the same schedule (Theorem 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Protocol, Sequence

from . import kernels
from .traversal import Traversal

__all__ = [
    "InfeasibleSchedule",
    "SimulationResult",
    "StepTrace",
    "simulate_fif",
    "fif_io_volume",
    "fif_traversal",
    "schedule_peak_memory",
]


class TreeLike(Protocol):
    """What the simulator reads: the weights and the CSR lists."""

    weights: Sequence[int]

    def core_lists(self) -> Any: ...


class InfeasibleSchedule(ValueError):
    """Raised when a step needs more memory than ``M`` even with everything evicted."""


@dataclass(frozen=True)
class StepTrace:
    """What happened while executing one task."""

    node: int
    need_before: int  # memory needed before any eviction at this step
    resident_after: int  # total memory in use right after the execution
    evictions: tuple[tuple[int, int], ...]  # (victim node, evicted amount)
    reads: int  # volume read back for this step's inputs


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of a FiF simulation.

    ``io`` maps node → :math:`\\tau(\\text{node})` for nodes that were
    evicted (missing nodes have zero I/O).
    """

    io: Mapping[int, int]
    io_volume: int
    peak_memory: int
    steps: tuple[StepTrace, ...] = field(default=())

    def io_list(self, n: int) -> tuple[int, ...]:
        """The I/O function as a dense tuple over ``n`` nodes."""
        return tuple(self.io.get(v, 0) for v in range(n))


def simulate_fif(
    tree: TreeLike,
    schedule: Sequence[int],
    memory: int | None,
    *,
    trace: bool = False,
) -> SimulationResult:
    """Run ``schedule`` under memory bound ``memory`` with FiF evictions.

    Parameters
    ----------
    tree:
        a tree with ``core_lists()``.
    schedule:
        the node ids to execute, in order.  Must be topological over the
        nodes it contains; every non-final node's parent must appear later
        in the schedule or not at all.
    memory:
        the memory bound ``M``; ``None`` simulates an unbounded memory
        (no evictions — useful to measure the peak of a schedule).
    trace:
        record a :class:`StepTrace` per step (costs memory; off by default).

    Returns
    -------
    SimulationResult
        with the optimal-for-``schedule`` I/O function, its volume, and the
        peak memory footprint actually reached.

    Raises
    ------
    InfeasibleSchedule
        if some step needs more than ``memory`` with every other active
        output fully evicted, i.e. ``wbar > M``.
    """
    steps: list[kernels.Step] | None = [] if trace else None
    io, io_total, peak = kernels.simulate_fif(tree, schedule, memory, steps)
    return SimulationResult(
        io=io,
        io_volume=io_total,
        peak_memory=peak,
        steps=tuple(StepTrace(*step) for step in steps) if steps else (),
    )


def fif_io_volume(tree: TreeLike, schedule: Sequence[int], memory: int) -> int:
    """Shortcut: the minimal I/O volume of ``schedule`` under ``memory``."""
    return simulate_fif(tree, schedule, memory).io_volume


def fif_traversal(tree, schedule: Sequence[int], memory: int) -> Traversal:
    """Package a full-tree schedule and its FiF I/O function as a traversal."""
    result = simulate_fif(tree, schedule, memory)
    n = len(tree.weights)
    return Traversal(tuple(schedule), result.io_list(n))


def schedule_peak_memory(tree: TreeLike, schedule: Sequence[int]) -> int:
    """Peak memory of ``schedule`` with no memory bound (MinMem objective)."""
    return simulate_fif(tree, schedule, None).peak_memory
