"""Event-driven simulator for parallel out-of-core tree execution.

Model
-----
* ``p`` identical processors share one memory of size ``M`` and one
  unbounded disk; task ``i`` runs for ``durations[i]`` seconds on one
  processor (tree parallelism only, as in the paper's terminology).
* While task ``i`` runs it holds its execution footprint ``wbar_i``;
  the outputs of completed tasks stay resident (partially evictable)
  until their parent *starts*, exactly as in the sequential model.
* Scheduling is priority-list: whenever a processor is free, the ready
  task with the best (lowest) priority rank that can be *made* to fit —
  by evicting resident outputs in furthest-consumer-first order — is
  started.  Evicted data is read back right before the consumer starts,
  and reads/writes extend the affected tasks (blocking-disk model, no
  contention between processors).

Reductions tested in the suite: with ``p = 1`` and the priority taken
from a sequential schedule ``sigma``, the simulator executes exactly
``sigma`` and performs exactly the FiF I/O volume of ``sigma`` — the
parallel engine is a strict generalisation of the sequential model.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..core.tree import TaskTree

__all__ = ["ParallelEvent", "ParallelReport", "simulate_parallel"]


@dataclass(frozen=True)
class ParallelEvent:
    """One task execution: processor, time window, I/O it waited on."""

    node: int
    processor: int
    start: float
    end: float
    read_volume: int


@dataclass(frozen=True)
class ParallelReport:
    """Outcome of a parallel simulation."""

    makespan: float
    io_volume: int
    peak_memory: int
    events: tuple[ParallelEvent, ...]
    busy_time: tuple[float, ...]  # per processor

    @property
    def order(self) -> list[int]:
        """Tasks by start time (ties by priority handling order)."""
        return [e.node for e in self.events]

    def utilisation(self) -> float:
        if self.makespan == 0:
            return 1.0
        return sum(self.busy_time) / (len(self.busy_time) * self.makespan)


def simulate_parallel(
    tree: TaskTree,
    memory: int,
    processors: int,
    priority: Sequence[int],
    *,
    durations: Mapping[int, float] | Sequence[float] | None = None,
    bandwidth: float = 0.0,
    gate: Callable[[int], bool] | None = None,
    on_start: Callable[[int], None] | None = None,
) -> ParallelReport:
    """Run the priority-list parallel execution.

    With ``processors=1`` and ``priority_from_schedule(sigma)`` this is the
    timed sequential executor: it runs exactly ``sigma`` with FiF's I/O.

    Parameters
    ----------
    priority:
        rank per node; lower rank starts earlier among ready tasks.  Use
        :func:`repro.parallel.strategies.priority_from_schedule` to derive
        it from any sequential schedule.
    durations:
        seconds per task (default: ``wbar_i`` — unit-speed processing of
        the footprint).
    bandwidth:
        disk units/second; ``0`` means transfers are instantaneous (pure
        volume accounting).  When positive, reading evicted inputs back
        is charged to the consuming task (blocking reads); writes are
        treated as asynchronous and only counted in the volume.
    gate:
        optional admission predicate: a ready task may only start while
        ``gate(node)`` is true.  This is the hook behind the activation
        window of :mod:`repro.parallel.activation`; the caller must
        guarantee progress (some ready task eventually admissible).
    on_start:
        optional callback invoked with the node id at the instant a task
        starts (lets gates track the set of started tasks).

    Raises
    ------
    ValueError
        for invalid processor counts or memory below the feasibility
        bound ``max wbar``.
    """
    n = tree.n
    if processors < 1:
        raise ValueError(f"need at least one processor, got {processors}")
    if len(priority) != n:
        raise ValueError("priority is not index-aligned with the tree")
    if memory < tree.min_feasible_memory():
        raise ValueError(
            f"M={memory} below the minimal feasible memory "
            f"{tree.min_feasible_memory()}"
        )
    if durations is None:
        durations = {v: float(tree.wbar[v]) for v in range(n)}

    weights = tree.weights
    children = tree.children
    parents = tree.parents

    # --- state ---------------------------------------------------------
    remaining_children = [len(children[v]) for v in range(n)]
    ready: list[tuple[int, int]] = []  # (rank, node)
    for v in range(n):
        if remaining_children[v] == 0:
            heapq.heappush(ready, (priority[v], v))

    resident: dict[int, int] = {}  # completed output -> resident share
    written: dict[int, int] = {}  # completed output -> evicted share
    running: dict[int, tuple[float, int]] = {}  # node -> (end time, proc)
    free_procs = list(range(processors - 1, -1, -1))
    reserved = 0  # sum of wbar of running tasks
    resident_total = 0
    io_total = 0
    peak = 0
    now = 0.0
    busy = [0.0] * processors
    events: list[ParallelEvent] = []
    completions: list[tuple[float, int, int]] = []  # (end, node, proc)

    def try_start() -> bool:
        """Start the best ready task that fits (evicting if needed)."""
        nonlocal reserved, resident_total, io_total, peak, now
        if not free_procs or not ready:
            return False
        # Candidates in rank order; start the first that can fit.
        deferred: list[tuple[int, int]] = []
        started = False
        while ready:
            rank, v = heapq.heappop(ready)
            if gate is not None and not gate(v):
                deferred.append((rank, v))
                continue
            inputs = sum(weights[c] for c in children[v])
            wbar_v = max(weights[v], inputs)
            # Inputs of v leave the resident pool (accounted in wbar now).
            freed = sum(resident.get(c, 0) for c in children[v])
            need = wbar_v + reserved + (resident_total - freed)
            evictable = [
                (k, share)
                for k, share in resident.items()
                if share > 0 and parents[k] != -1 and k not in children[v]
            ]
            max_evict = sum(share for _, share in evictable)
            if need - max_evict > memory:
                deferred.append((rank, v))
                continue
            # Evict furthest-consumer-first until it fits.
            overflow = need - memory
            if overflow > 0:
                evictable.sort(key=lambda kv: -priority[parents[kv[0]]])
                for k, share in evictable:
                    if overflow <= 0:
                        break
                    take = min(share, overflow)
                    resident[k] -= take
                    written[k] = written.get(k, 0) + take
                    resident_total -= take
                    io_total += take
                    overflow -= take
            # Consume the inputs, reserve the footprint, start the task.
            read_volume = sum(written.pop(c, 0) for c in children[v])
            for c in children[v]:
                resident_total -= resident.pop(c, 0)
            reserved += wbar_v
            peak_now = reserved + resident_total
            nonlocal_peak(peak_now)
            proc = free_procs.pop()
            io_time = (read_volume / bandwidth) if bandwidth > 0 else 0.0
            duration = io_time + float(durations[v])
            end = now + duration
            running[v] = (end, proc)
            busy[proc] += duration
            heapq.heappush(completions, (end, v, proc))
            events.append(
                ParallelEvent(
                    node=v, processor=proc, start=now, end=end, read_volume=read_volume
                )
            )
            if on_start is not None:
                on_start(v)
            started = True
            break
        for item in deferred:
            heapq.heappush(ready, item)
        return started

    def nonlocal_peak(value: int) -> None:
        nonlocal peak
        if value > peak:
            peak = value

    done = 0
    while done < n:
        # Start as many tasks as possible at the current time.
        while try_start():
            pass
        if not completions:
            raise AssertionError(
                "deadlock: no running task and nothing startable "
                "(cannot happen when M >= max wbar)"
            )
        # Advance to the next completion.
        now, v, proc = heapq.heappop(completions)
        del running[v]
        free_procs.append(proc)
        wbar_v = max(weights[v], sum(weights[c] for c in children[v]))
        reserved -= wbar_v
        if parents[v] != -1:
            resident[v] = weights[v]
            resident_total += weights[v]
            remaining_children[parents[v]] -= 1
            if remaining_children[parents[v]] == 0:
                heapq.heappush(ready, (priority[parents[v]], parents[v]))
        done += 1
        nonlocal_peak(reserved + resident_total)

    # Stable sort: simultaneous starts keep the order try_start issued
    # them in (the documented "ties by priority handling order").
    events.sort(key=lambda e: e.start)
    return ParallelReport(
        makespan=now,
        io_volume=io_total,
        peak_memory=peak,
        events=tuple(events),
        busy_time=tuple(busy),
    )
