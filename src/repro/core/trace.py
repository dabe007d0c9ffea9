"""Execution traces: the runtime-facing export of a traversal.

A scheduler that plans ``(sigma, tau)`` hands the runtime an *event
stream*: execute this task, write that much of this output, read it back
before its consumer.  This module defines that stream, serialises it as
JSON-lines (one event per line, the format long-running jobs can append
to and resume from), and — crucially — provides an independent
:func:`replay` that re-derives memory usage and I/O volume from the
events alone, cross-checking the planner.

The stream has one producer and one walk: :func:`traversal_trace` and
:func:`schedule_trace` take their events from the same generator, and
the schedule curve (also :func:`repro.obs.schedule_trace`) is the
per-event record of :func:`replay`'s walk.

Event order for a traversal: for each scheduled task, first the ``read``
events restoring evicted parts of its inputs, then ``execute``, then the
``write`` event spilling :math:`\\tau(v)` of the fresh output (the paper
fixes exactly this placement: writes right after production, reads right
before consumption — any other scheme uses more memory for the same
volume).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from .traversal import Traversal
from .tree import TaskTree

__all__ = [
    "ReplayResult",
    "TraceError",
    "TraceEvent",
    "from_jsonl",
    "replay",
    "schedule_trace",
    "to_jsonl",
    "traversal_trace",
]

_KINDS = ("read", "execute", "write")


@dataclass(frozen=True)
class TraceEvent:
    """One runtime step.

    ``amount`` is the transferred volume for read/write events; for
    ``execute`` it is the execution footprint :math:`\\bar w_v` the
    runtime must provision.
    """

    kind: str  # "read" | "execute" | "write"
    node: int
    amount: int

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.amount < 0:
            raise ValueError(f"negative amount in {self!r}")


def _stream(
    children: Sequence[Sequence[int]],
    weights: Sequence[int],
    schedule: Iterable[int],
    io: Sequence[int],
) -> Iterator[tuple[str, int, int]]:
    """A traversal's events as plain ``(kind, node, amount)`` tuples."""
    for v in schedule:
        inputs = 0
        for c in children[v]:
            inputs += weights[c]
            if io[c]:
                yield "read", c, io[c]
        yield "execute", v, max(weights[v], inputs)
        if io[v]:
            yield "write", v, io[v]


def traversal_trace(tree: TaskTree, traversal: Traversal) -> list[TraceEvent]:
    """The canonical event stream of a traversal (reads, execute, write)."""
    events = _stream(tree.children, tree.weights, traversal.schedule, traversal.io)
    return [TraceEvent(*event) for event in events]


def to_jsonl(events: Iterable[TraceEvent]) -> str:
    """One compact JSON object per line: ``{"k":..,"n":..,"a":..}``."""
    return "\n".join(
        json.dumps({"k": e.kind, "n": e.node, "a": e.amount}, separators=(",", ":"))
        for e in events
    )


def from_jsonl(text: str) -> list[TraceEvent]:
    """Inverse of :func:`to_jsonl`; skips blank lines, validates kinds."""
    events: list[TraceEvent] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            events.append(TraceEvent(obj["k"], int(obj["n"]), int(obj["a"])))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"bad trace line {lineno}: {line!r}") from exc
    return events


class TraceError(ValueError):
    """An event stream inconsistent with the tree or the memory bound."""


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of an independent replay of an event stream.

    ``memory[i]`` is the need checked at event ``i`` (the resident total
    after a read or write, :math:`\\bar w_v` plus it at an execute);
    ``cumulative_io[i]`` is the write volume after event ``i``.
    """

    io_volume: int
    peak_memory: int
    schedule: tuple[int, ...]
    memory: tuple[int, ...]
    cumulative_io: tuple[int, ...]


def replay(
    tree: TaskTree,
    events: Sequence[TraceEvent],
    memory: int | None = None,
) -> ReplayResult:
    """Re-execute an event stream, checking every model rule.

    Verifies: every task executes exactly once after its children; reads
    restore previously written data of a still-active output, before its
    consumer; writes spill fresh output, at most once, within ``w_v``;
    and (with ``memory`` given) the resident total never exceeds ``M``.

    This is deliberately written against the *events*, not against the
    traversal that produced them, so it catches export bugs.

    Raises
    ------
    TraceError
        on the first violated rule.
    """
    tuples = ((e.kind, e.node, e.amount) for e in events)
    return _walk(tree.parents, tree.weights, tree.children, tuples, memory)


def _walk(
    parents: Sequence[int],
    weights: Sequence[int],
    children: Sequence[Sequence[int]],
    events: Iterable[tuple[str, int, int]],
    memory: int | None,
) -> ReplayResult:
    """:func:`replay` over ``(kind, node, amount)`` tuples."""
    n = len(parents)
    executed = [False] * n
    written = [0] * n  # on-disk amount per output
    resident = [0] * n  # in-memory amount per active output
    resident_total = 0
    io_volume = 0
    schedule: list[int] = []
    needs: list[int] = []
    cumulative_io: list[int] = []

    def fail(i: int, kind: str, v: int, message: str) -> TraceError:
        return TraceError(f"event {i} ({kind} node {v}): {message}")

    for i, (kind, v, amount) in enumerate(events):
        if kind == "execute":
            if executed[v]:
                raise fail(i, kind, v, "executed twice")
            inputs = 0
            for c in children[v]:
                if not executed[c]:
                    raise fail(i, kind, v, f"child {c} not executed")
                if written[c] != 0:
                    raise fail(i, kind, v, f"child {c} still has {written[c]} on disk")
                inputs += weights[c]
                resident_total -= resident[c]
                resident[c] = 0
            # the transient footprint bounds the fresh output (wbar >= w_v)
            need = max(weights[v], inputs) + resident_total
            executed[v] = True
            schedule.append(v)
            resident[v] = weights[v]
            resident_total += weights[v]
        elif kind == "write":
            if not executed[v]:
                raise fail(i, kind, v, "output does not exist yet")
            if amount > resident[v]:
                raise fail(
                    i, kind, v, f"writes {amount} but only {resident[v]} resident"
                )
            resident[v] -= amount
            resident_total -= amount
            written[v] += amount
            io_volume += amount
            need = resident_total
        else:  # read
            if amount > written[v]:
                raise fail(
                    i, kind, v, f"reads {amount} but only {written[v]} on disk"
                )
            p = parents[v]
            if p == -1 or executed[p]:
                raise fail(i, kind, v, "consumer already executed (or root)")
            written[v] -= amount
            resident[v] += amount
            resident_total += amount
            need = resident_total
        if memory is not None and need > memory:
            raise fail(i, kind, v, f"{need} > M={memory}")
        needs.append(need)
        cumulative_io.append(io_volume)

    if not all(executed):
        missing = [v for v in range(n) if not executed[v]]
        raise TraceError(f"tasks never executed: {missing[:10]}")
    return ReplayResult(
        io_volume=io_volume,
        peak_memory=max(needs, default=0),
        schedule=tuple(schedule),
        memory=tuple(needs),
        cumulative_io=tuple(cumulative_io),
    )


#: one char per event kind in a schedule trace's ``kinds`` string
_KIND_CHARS = {"read": "r", "execute": "x", "write": "w"}


def schedule_trace(
    parents: Sequence[int],
    weights: Sequence[int],
    schedule: Sequence[int],
    io: Sequence[int],
) -> dict[str, Any]:
    """The event-indexed memory/I/O curve of one solved traversal.

    :func:`replay`'s per-event curves, formatted for a solve result, from
    the solver's outputs (``schedule``, and ``io`` index-aligned with the
    tree): no re-solve and no tree object.  Returns::

        {"version": 1,
         "nodes":         [node id per event],
         "kinds":         "rxwrx..."   (r=read, x=execute, w=write),
         "memory":        [memory need at each event],
         "cumulative_io": [write volume after each event],
         "peak_memory":   max(memory),
         "io_volume":     cumulative_io[-1]}

    ``peak_memory`` is :func:`replay`'s, which matches the solver's
    reported peak bit for bit.
    """
    parents = list(map(int, parents))
    weights = list(map(int, weights))
    children: list[list[int]] = [[] for _ in parents]
    for v, p in enumerate(parents):
        if p >= 0:
            children[p].append(v)
    io = list(map(int, io))
    events = list(_stream(children, weights, map(int, schedule), io))
    result = _walk(parents, weights, children, events, None)
    return {
        "version": 1,
        "nodes": [v for _, v, _ in events],
        "kinds": "".join([_KIND_CHARS[kind] for kind, _, _ in events]),
        "memory": list(result.memory),
        "cumulative_io": list(result.cumulative_io),
        "peak_memory": result.peak_memory,
        "io_volume": result.io_volume,
    }
