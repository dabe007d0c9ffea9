"""Iterative, allocation-lean algorithm cores over CSR lists.

These are the hot paths of the reproduction, written against the flat
CSR layout of :class:`~repro.core.tree.CoreLists` — which both
:class:`~repro.core.tree.TaskTree` (cached) and
:class:`~repro.core.arraytree.ArrayTree` (converted per call) provide:

* :func:`best_postorder` — the shared engine of ``POSTORDERMINMEM`` /
  ``POSTORDERMINIO`` (Liu 1986 / Agullo 2008, Algorithm 1 of the paper);
* :func:`liu_segments` / :func:`liu_schedule` / :func:`liu_peak` —
  Liu's hill–valley segment solver (``OPTMINMEM``);
* :func:`simulate_fif` — the Furthest-in-the-Future eviction simulator
  (Theorem 1);
* :func:`structure_stats` — one-pass shape statistics.

Every function is **exactly equivalent** to its object-engine
counterpart (same schedules, same ``S_i``/``V_i``, same I/O function,
same tie-breaking) — an invariant enforced by the randomized
cross-validation harness in ``tests/test_kernel_crossval.py``.  The
difference is purely mechanical: no recursion anywhere (explicit int
stacks, so 10^6-node and 10^6-deep trees are fine), no per-node object
or closure allocation, plain-list scratch buffers, and child orderings
realised by sorting slices of one flat buffer.

The modules under :mod:`repro.algorithms` wrap these cores behind the
public APIs; use those entry points unless you need the raw tuples.

Every algorithm is split into a ``*_core`` function operating on plain
Python lists (node ids local to one tree) and a thin wrapper taking any
tree with ``core_lists()``.  The cores are the single implementation
shared with the forest layer (:mod:`repro.core.forest_kernels`), which
slices the same lists out of concatenated many-tree buffers, and with
the RecExpand heuristics, which run them on the growing lists of an
:class:`~repro.core.expansion.ExpansionTree` — one implementation, so
the per-tree, batched and incremental paths can never diverge.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from .arraytree import ArrayTree

__all__ = [
    "best_postorder",
    "best_postorder_core",
    "fif_overflow_message",
    "fif_stuck_message",
    "flatten_rope",
    "liu_combine",
    "liu_segments",
    "liu_fill",
    "liu_segments_core",
    "liu_schedule",
    "liu_peak",
    "liu_peak_core",
    "simulate_fif",
    "simulate_fif_core",
    "structure_stats",
]

# ----------------------------------------------------------------------
# best postorder (POSTORDERMINMEM / POSTORDERMINIO)
# ----------------------------------------------------------------------
def best_postorder(
    tree, memory: int | None
) -> tuple[list[int], list[int], list[int]]:
    """The optimal postorder under Liu's rearrangement lemma (Theorem 3).

    ``memory=None`` ranks children by ``S_j - w_j`` (MinMem),
    otherwise by ``min(M, S_j) - w_j`` (MinIO).  Returns
    ``(schedule, storage, vio)`` with ``storage[v] = S_v`` and
    ``vio[v] = V_v`` (all zeros in MinMem mode) — the exact quantities
    of the object engine's ``_best_postorder``.
    """
    lists = tree.core_lists()
    return best_postorder_core(
        len(lists.weights),
        lists.weights,
        lists.start,
        list(lists.cindex),
        lists.topo,
        memory,
    )


def best_postorder_core(
    n: int,
    weights: Sequence[int],
    start: Sequence[int],
    ordered: list[int],
    topo: Sequence[int],
    memory: int | None,
) -> tuple[list[int], list[int], list[int]]:
    """List-based engine of :func:`best_postorder` (local node ids).

    ``ordered`` is the CSR child index and is reordered **in place**,
    slice by slice — pass a fresh copy.
    """
    storage = [0] * n
    key = [0] * n  # child-ranking key, filled once per finished subtree
    vio = [0] * n
    size = [1] * n  # subtree sizes, reused by the position-assignment pass
    key_get = key.__getitem__
    minmem = memory is None

    for v in reversed(topo):
        s = start[v]
        e = start[v + 1]
        w_v = weights[v]
        if s == e:
            storage[v] = w_v
            if not minmem:
                key[v] = (w_v if w_v < memory else memory) - w_v
            continue
        if e - s == 1:
            # Single child: no ordering decision, no loop.
            c = ordered[s]
            s_c = storage[c]
            peak = s_c if s_c > w_v else w_v
            storage[v] = peak
            size[v] = 1 + size[c]
            if minmem:
                key[v] = peak - w_v
            else:
                # min(M, S_c) never exceeds M, so the child contributes
                # no new I/O at v: V_v = V_c.
                vio[v] = vio[c]
                key[v] = (peak if peak < memory else memory) - w_v
            continue
        if e - s == 2:
            a = ordered[s]
            b = ordered[s + 1]
            # A strict improvement swaps; a tie keeps ascending ids —
            # the same (-key, id) order the object engine sorts by.
            if key[b] > key[a]:
                ordered[s] = b
                ordered[s + 1] = a
                a, b = b, a
            s_a = storage[a]
            s_b = storage[b]
            w_a = weights[a]
            peak = s_b + w_a
            if s_a > peak:
                peak = s_a
            if w_v > peak:
                peak = w_v
            storage[v] = peak
            size[v] = 1 + size[a] + size[b]
            if minmem:
                key[v] = peak - w_v
            else:
                worst = (s_b if s_b < memory else memory) + w_a
                a_a = s_a if s_a < memory else memory
                if a_a > worst:
                    worst = a_a
                over = worst - memory
                vio[v] = (over if over > 0 else 0) + vio[a] + vio[b]
                key[v] = (peak if peak < memory else memory) - w_v
            continue
        kids = ordered[s:e]  # ascending ids == TaskTree construction order
        # Stable reverse sort == sorting by (-key, id): ties keep the
        # ascending-id order, exactly the object engine's tie-break.
        kids.sort(key=key_get, reverse=True)
        ordered[s:e] = kids

        peak = w_v
        prefix = 0
        sz = 1
        if minmem:
            for c in kids:
                t = storage[c] + prefix
                if t > peak:
                    peak = t
                prefix += weights[c]
                sz += size[c]
            storage[v] = peak
            key[v] = peak - w_v
        else:
            worst = 0
            vsum = 0
            for c in kids:
                s_c = storage[c]
                t = s_c + prefix
                if t > peak:
                    peak = t
                a = s_c if s_c < memory else memory
                t = a + prefix
                if t > worst:
                    worst = t
                prefix += weights[c]
                vsum += vio[c]
                sz += size[c]
            storage[v] = peak
            over = worst - memory
            vio[v] = (over if over > 0 else 0) + vsum
            key[v] = (peak if peak < memory else memory) - w_v
        size[v] = sz

    # Emit the postorder defined by the ordered child slices: one
    # top-down pass assigns every node the *end* position of its subtree
    # block (the root closes the whole tree at n-1; a node's children
    # close at decreasing offsets given by their subtree sizes).
    schedule = [0] * n
    end = [0] * n
    end[topo[0]] = n - 1
    for v in topo:
        pos = end[v]
        schedule[pos] = v
        s = start[v]
        e = start[v + 1]
        if s == e:
            continue
        pos -= 1
        for j in range(e - 1, s - 1, -1):
            c = ordered[j]
            end[c] = pos
            pos -= size[c]
    return schedule, storage, vio


# ----------------------------------------------------------------------
# Liu's segment solver (OPTMINMEM)
# ----------------------------------------------------------------------
def flatten_rope(rope, out: list[int]) -> None:
    """Flatten a rope (an int leaf or a nested pair) into ``out``.

    The single definition of the rope encoding both the object-engine
    :class:`~repro.algorithms.liu.Segment` and the kernel's segment
    tuples use — keep them on one flattener so they can never diverge.
    """
    stack = [rope]
    push = stack.append
    pop = stack.pop
    append = out.append
    while stack:
        x = pop()
        if type(x) is int:
            append(x)
        else:
            push(x[1])
            push(x[0])


def liu_segments(tree) -> list[tuple[int, int, object]]:
    """Canonical hill–valley segments ``(hill, valley, rope)`` of the root.

    The algebra is described in :mod:`repro.algorithms.liu`; per-node
    lists are freed as soon as their parent has consumed them.
    """
    lists = tree.core_lists()
    return liu_segments_core(
        len(lists.weights), lists.weights, lists.start, lists.cindex, lists.topo
    )


def liu_segments_core(
    n: int,
    weights: Sequence[int],
    start: Sequence[int],
    cindex: Sequence[int],
    topo: Sequence[int],
) -> list[tuple[int, int, object]]:
    """List-based engine of :func:`liu_segments` (``topo[0]`` is the root)."""
    segs: list[list[tuple[int, int, object]] | None] = [None] * n
    liu_fill(weights, start, cindex, reversed(topo), segs)
    return segs[topo[0]]


def liu_fill(
    weights: Sequence[int],
    start: Sequence[int],
    cindex: Sequence[int],
    order: Iterable[int],
    segs: list,
) -> None:
    """Solve every node of ``order`` bottom-up into ``segs[v]``.

    ``order`` lists children before their parents; each node's canonical
    ``(hill, valley, rope)`` segments land in ``segs[v]``, and the
    children's entries are consumed (reset to ``None``).  Nodes whose
    parent is not in ``order`` keep their segments — the per-tree core
    reads the root's, the forest sweep seeds its store from a depth
    level's.  Ids index the CSR lists directly, so the same loop runs on
    one tree's local lists or on compact lists of a forest's deep
    subtrees.
    """
    combine = liu_combine
    for v in order:
        s = start[v]
        e = start[v + 1]
        w_v = weights[v]
        if s == e:
            segs[v] = [(w_v, w_v, v)]
            continue
        if e - s == 1:
            # liu_combine's single-child case, inlined: a call per link
            # of a chain costs the forest sweep ~20% on deep trees.
            c = cindex[s]
            out = segs[c]
            segs[c] = None
            base = out[-1][1]
            hill = base if base > w_v else w_v
            nodes: object = v
            while out and (hill >= out[-1][0] or w_v <= out[-1][1]):
                top_hill, _top_valley, top_nodes = out.pop()
                if top_hill > hill:
                    hill = top_hill
                nodes = (top_nodes, nodes)
            out.append((hill, w_v, nodes))
            segs[v] = out
            continue
        kids = []
        for c in cindex[s:e]:
            kids.append(segs[c])
            segs[c] = None  # parent consumes it exactly once; free early
        segs[v] = combine(v, w_v, kids)


def liu_combine(v: int, w_v: int, kids: list[list]) -> list:
    """Canonical segments of ``v`` from its children's, in child order.

    The one scalar statement of Liu's rearrangement lemma: every child's
    segments become deltas, merged by decreasing ``hill - valley``, then
    ``v`` itself runs.  ``kids`` is consumed: a single child's list is
    extended in place and returned (pass a copy to keep it).
    """
    if not kids:
        return [(w_v, w_v, v)]
    if len(kids) == 1:
        # Single child: its canonical segments replay to themselves, so
        # just fold v's own segment in (base == the child's final valley
        # == its output size).
        out = kids[0]
        base = out[-1][1]
    else:
        # Delta segments of all children, merged by decreasing h - t
        # (stored negated so one ascending sort does it); the child's
        # rank breaks ties, in child order.  (valley - hill) is strictly
        # increasing within a child and rank is unique per child, so the
        # (neg, rank) prefix is unique — a plain tuple sort never
        # reaches the rope element.
        items = []
        push_item = items.append
        for rank, child_segs in enumerate(kids):
            prev_valley = 0
            for hill, valley, nodes in child_segs:
                push_item(
                    (valley - hill, rank, hill - prev_valley,
                     valley - prev_valley, nodes)
                )
                prev_valley = valley
        items.sort()

        # Replay the merged deltas on a running base and canonicalise in
        # the same pass (hills strictly decreasing, valleys strictly
        # increasing; violators merge into their predecessor).
        base = 0
        out = []
        for _neg, _rank, x, y, nodes in items:
            hill = base + x
            base += y
            while out and (hill >= out[-1][0] or base <= out[-1][1]):
                top_hill, _top_valley, top_nodes = out.pop()
                if top_hill > hill:
                    hill = top_hill
                nodes = (top_nodes, nodes)
            out.append((hill, base, nodes))
    # Execute v itself: base == sum of the children outputs.
    hill = base if base > w_v else w_v
    nodes: object = v
    while out and (hill >= out[-1][0] or w_v <= out[-1][1]):
        top_hill, _top_valley, top_nodes = out.pop()
        if top_hill > hill:
            hill = top_hill
        nodes = (top_nodes, nodes)
    out.append((hill, w_v, nodes))
    return out


def liu_schedule(tree) -> tuple[list[int], int]:
    """``OPTMINMEM``: an optimal-peak schedule and its peak memory."""
    segs = liu_segments(tree)
    schedule: list[int] = []
    for _hill, _valley, nodes in segs:
        flatten_rope(nodes, schedule)
    return schedule, segs[0][0]


def liu_peak(tree) -> int:
    """Minimum peak memory only — the rope-free fast path of the solver."""
    lists = tree.core_lists()
    return liu_peak_core(
        len(lists.weights), lists.weights, lists.start, lists.cindex, lists.topo
    )


def liu_peak_core(
    n: int,
    weights: Sequence[int],
    start: Sequence[int],
    cindex: Sequence[int],
    topo: Sequence[int],
) -> int:
    """List-based engine of :func:`liu_peak` (``topo[0]`` is the root)."""
    segs: list[list[tuple[int, int]] | None] = [None] * n

    for v in reversed(topo):
        s = start[v]
        e = start[v + 1]
        w_v = weights[v]
        if s == e:
            segs[v] = [(w_v, w_v)]
            continue
        if e - s == 1:
            c = cindex[s]
            out = segs[c]
            segs[c] = None
            base = out[-1][1]
            hill = base if base > w_v else w_v
            while out and (hill >= out[-1][0] or w_v <= out[-1][1]):
                top_hill, _tv = out.pop()
                if top_hill > hill:
                    hill = top_hill
            out.append((hill, w_v))
            segs[v] = out
            continue
        items = []
        push_item = items.append
        for rank in range(s, e):
            c = cindex[rank]
            prev_valley = 0
            child_segs = segs[c]
            segs[c] = None
            for hill, valley in child_segs:
                push_item((valley - hill, hill - prev_valley, valley - prev_valley))
                prev_valley = valley
        items.sort()
        base = 0
        out = []
        for _neg, x, y in items:
            hill = base + x
            base += y
            while out and (hill >= out[-1][0] or base <= out[-1][1]):
                top_hill, _tv = out.pop()
                if top_hill > hill:
                    hill = top_hill
            out.append((hill, base))
        hill = base if base > w_v else w_v
        while out and (hill >= out[-1][0] or w_v <= out[-1][1]):
            top_hill, _tv = out.pop()
            if top_hill > hill:
                hill = top_hill
        out.append((hill, w_v))
        segs[v] = out
    return segs[topo[0]][0][0]


# ----------------------------------------------------------------------
# Furthest-in-the-Future simulator (Theorem 1)
# ----------------------------------------------------------------------
def fif_overflow_message(v: int, wbar_v: int, memory: int) -> str:
    """``InfeasibleSchedule`` text when one node alone exceeds the bound.

    Shared by the per-tree core and the vectorised forest sweep so the
    two engines raise byte-identical diagnostics.
    """
    return f"node {v} alone needs wbar={wbar_v} > M={memory}"


def fif_stuck_message(step: int, v: int, excess: int, memory: int) -> str:
    """``InfeasibleSchedule`` text when eviction runs out of candidates."""
    return (
        f"step {step} (node {v}): nothing left to evict "
        f"but still {excess} over M={memory}"
    )


def simulate_fif(
    tree, schedule: Sequence[int], memory: int | None
) -> tuple[dict[int, int], int, int]:
    """FiF execution of ``schedule`` under bound ``memory``.

    Returns ``(io, io_volume, peak_memory)`` with ``io`` mapping only the
    evicted nodes, in first-eviction order — exactly the object
    simulator's accounting, including eviction order (the
    lazily-cleaned max-heap on parent positions is byte-compatible).
    ``schedule`` may cover a subtree only (see
    :func:`simulate_fif_core`).  Raises
    :class:`~repro.core.simulator.InfeasibleSchedule` exactly where the
    object simulator would.
    """
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


def simulate_fif_core(
    n: int,
    weights: Sequence[int],
    parents: Sequence[int],
    start: Sequence[int],
    cindex: Sequence[int],
    wbar: Sequence[int],
    schedule: Sequence[int],
    memory: int | None,
) -> tuple[dict[int, int], int, int]:
    """List-based engine of :func:`simulate_fif` (local node ids).

    ``schedule`` is a full-tree schedule or a subtree's: a node outside
    it — the subtree root's parent, like the tree root's missing one —
    sits at the horizon ``len(schedule)``, so its child's output is the
    furthest in the future of all.
    """
    from .simulator import InfeasibleSchedule  # circular-safe: lazy

    # pos[-1] (the root's "parent") is the extra last slot: the horizon.
    horizon = len(schedule)
    pos = [horizon] * (n + 1)
    t = 0
    for v in schedule:
        pos[v] = t
        t += 1

    # Eviction priority of a node == minus its parent's position (a
    # min-heap then pops the furthest-in-the-future output first).
    # Computed only when an output actually reaches the heap.
    def _priority(u: int) -> int:
        return -pos[parents[u]]

    resident = [0] * n
    io = [0] * n
    evicted: list[int] = []  # first-eviction order, as the object engine
    # The eviction heap is built lazily: newly active outputs accumulate
    # in ``pending`` and are folded in only when an eviction round
    # actually needs candidates.  Eviction-free execution (the common
    # case once M is comfortable) therefore never pays a single heap
    # operation.  Folding filters already-consumed outputs and either
    # pushes individually or re-heapifies, whichever is asymptotically
    # cheaper, so heavy-eviction runs stay O(log n) amortised per node.
    heap: list[tuple[int, int]] = []
    pending: list[int] = []
    push_pending = pending.append
    heappush = heapq.heappush
    heappop = heapq.heappop
    heapify = heapq.heapify
    resident_total = 0
    io_total = 0
    peak = 0

    for v in schedule:
        w_v = weights[v]
        s = start[v]
        e = start[v + 1]
        wbar_v = wbar[v]
        if s != e:
            # Consume the children's outputs (their memory is accounted
            # for inside wbar during this step).
            for c in cindex[s:e]:
                share = resident[c]
                if share:
                    resident_total -= share
                    resident[c] = 0

        need = wbar_v + resident_total
        if memory is not None and need > memory:
            if wbar_v > memory:
                raise InfeasibleSchedule(
                    fif_overflow_message(v, wbar_v, memory)
                )
            if pending:
                if len(pending) * 8 < len(heap):
                    for u in pending:
                        if resident[u] > 0:
                            heappush(heap, (_priority(u), u))
                else:
                    heap.extend(
                        (_priority(u), u) for u in pending if resident[u] > 0
                    )
                    heapify(heap)
                pending.clear()
            excess = need - memory
            while excess > 0:
                while heap:
                    k = heap[0][1]
                    if resident[k] > 0:
                        break
                    heappop(heap)
                if not heap:
                    raise InfeasibleSchedule(
                        fif_stuck_message(pos[v], v, excess, memory)
                    )
                k = heap[0][1]
                r_k = resident[k]
                take = r_k if r_k < excess else excess
                resident[k] = r_k - take
                if not io[k]:
                    evicted.append(k)
                io[k] += take
                if r_k == take:
                    heappop(heap)
                resident_total -= take
                io_total += take
                excess -= take
            need = memory
        if need > peak:
            peak = need

        resident[v] = w_v
        resident_total += w_v
        push_pending(v)

    return {k: io[k] for k in evicted}, io_total, peak


# ----------------------------------------------------------------------
# subtree / shape statistics
# ----------------------------------------------------------------------
def structure_stats(at: ArrayTree) -> dict[str, int | float]:
    """One-pass shape numbers: depth, leaves, arity — no per-node objects."""
    n = at.n
    start = at._child_start
    max_depth = at.depth()
    leaves = 0
    max_arity = 0
    internal = 0
    arity_sum = 0
    prev = start[0]
    for i in range(1, n + 1):
        cur = start[i]
        a = cur - prev
        prev = cur
        if a == 0:
            leaves += 1
        else:
            internal += 1
            arity_sum += a
            if a > max_arity:
                max_arity = a
    return {
        "depth": max_depth,
        "leaves": leaves,
        "max_arity": max_arity,
        "mean_arity_internal": (arity_sum / internal) if internal else 0.0,
    }
