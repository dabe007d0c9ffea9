"""Out-of-core execution simulator with Furthest-in-the-Future eviction.

Theorem 1 of the paper: *given* a schedule ``sigma``, the I/O function
``tau`` obtained by evicting — whenever memory overflows — from the active
output whose parent executes furthest in the future is optimal for
``sigma``.  This is the offline analogue of Belady's MIN cache rule.

The simulator below implements exactly that policy.  It is the measuring
instrument of the whole reproduction: every scheduling algorithm produces
a schedule, and this module turns it into the minimal I/O volume that the
schedule can achieve, together with an optional step-by-step trace.

The implementation is generic over the small "tree protocol" (``weights``,
``parents``, ``children`` indexables) so it can simulate

* full :class:`~repro.core.tree.TaskTree` schedules,
* *subtree* schedules (the root of the subtree has its parent outside the
  schedule — its output simply stays resident, which is harmless because
  the subtree root is always scheduled last), and
* the mutable expansion trees used by the RecExpand heuristics.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Mapping, Protocol, Sequence

from . import kernels
from .engine import runs_on_cores
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
    """The minimal structural interface the simulator needs."""

    weights: Sequence[int]
    parents: Sequence[int]
    children: Sequence[Sequence[int]]


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
    engine: str | None = None,
) -> SimulationResult:
    """Run ``schedule`` under memory bound ``memory`` with FiF evictions.

    Parameters
    ----------
    tree:
        anything satisfying the tree protocol.
    schedule:
        the node ids to execute, in order.  Must be topological over the
        nodes it contains; every non-final node's parent must appear later
        in the schedule or not at all.
    memory:
        the memory bound ``M``; ``None`` simulates an unbounded memory
        (no evictions — useful to measure the peak of a schedule).
    trace:
        record a :class:`StepTrace` per step (costs memory; off by default).
    engine:
        kernel-engine override (see :mod:`repro.core.engine`).  Untraced
        runs on a :class:`~repro.core.tree.TaskTree` or an
        :class:`~repro.core.arraytree.ArrayTree` — full-tree or subtree
        schedules — take :func:`repro.core.kernels.simulate_fif_core`
        unless it resolves to ``object``; traced runs and other tree
        protocol objects use the object loop.  Results are identical
        either way.

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
    if not trace and runs_on_cores(tree, engine):
        io, io_total, peak = kernels.simulate_fif(tree, schedule, memory)
        return SimulationResult(io=io, io_volume=io_total, peak_memory=peak)
    return _simulate_fif_object(tree, schedule, memory, trace)


def _simulate_fif_object(
    tree: TreeLike, schedule: Sequence[int], memory: int | None, trace: bool
) -> SimulationResult:
    """The object-engine FiF loop: the reference, and the traced path."""
    weights = tree.weights
    parents = tree.parents
    children = tree.children

    pos: dict[int, int] = {v: t for t, v in enumerate(schedule)}
    horizon = len(schedule)

    resident: dict[int, int] = {}  # active node -> resident share (w_k - tau_k)
    io: dict[int, int] = {}
    # Eviction candidates ordered by decreasing parent position (FiF):
    # a max-heap over sigma(parent(k)), lazily cleaned.
    heap: list[tuple[int, int]] = []
    resident_total = 0
    io_total = 0
    peak = 0
    steps: list[StepTrace] = []

    for t, v in enumerate(schedule):
        inputs = 0
        reads = 0
        for c in children[v]:
            inputs += weights[c]
            reads += io.get(c, 0)
            share = resident.pop(c, None)
            if share is not None:
                resident_total -= share
        wbar_v = max(weights[v], inputs)

        need = wbar_v + resident_total
        evictions: list[tuple[int, int]] = []
        if memory is not None and need > memory:
            if wbar_v > memory:
                raise InfeasibleSchedule(
                    f"node {v} alone needs wbar={wbar_v} > M={memory}"
                )
            excess = need - memory
            while excess > 0:
                # Find the valid top of the lazy heap.
                while heap:
                    _, k = heap[0]
                    if resident.get(k, 0) > 0:
                        break
                    heapq.heappop(heap)
                if not heap:
                    raise InfeasibleSchedule(
                        f"step {t} (node {v}): nothing left to evict "
                        f"but still {excess} over M={memory}"
                    )
                k = heap[0][1]
                take = min(resident[k], excess)
                resident[k] -= take
                io[k] = io.get(k, 0) + take
                if resident[k] == 0:
                    heapq.heappop(heap)
                resident_total -= take
                io_total += take
                excess -= take
                evictions.append((k, take))
            need = memory
        if need > peak:
            peak = need

        if trace:
            steps.append(
                StepTrace(
                    node=v,
                    need_before=wbar_v + resident_total + sum(a for _, a in evictions),
                    resident_after=weights[v] + resident_total,
                    evictions=tuple(evictions),
                    reads=reads,
                )
            )

        # The output of v becomes active (until its parent runs).  A parent
        # outside the schedule means "stays forever" — sorted last, which is
        # also the correct FiF priority.
        resident[v] = weights[v]
        resident_total += weights[v]
        parent_pos = pos.get(parents[v], horizon)
        heapq.heappush(heap, (-parent_pos, v))

    return SimulationResult(
        io=io, io_volume=io_total, peak_memory=peak, steps=tuple(steps)
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
