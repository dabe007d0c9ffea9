"""Whole-forest sweeps of the hot algorithms over :class:`ArrayForest`.

Each kernel runs across every member of a forest at once.  Two kinds of
implementation back it, and both are byte-identical to the per-tree
entry points (``kernels.best_postorder`` / ``min_peak_memory`` /
``opt_min_mem`` / ``kernels.simulate_fif``) on the member trees,
enforced by the forest property tests (``tests/test_forest.py``):

* the **list cores** of :mod:`repro.core.kernels`, run over slices of
  the forest's concatenated columns (converted to lists once, cached on
  the forest) — the single scalar implementation of every algorithm;
* a **loop-free twin** per strategy: single reductions for the bounds
  (:func:`forest_lower_bounds`), the level-synchronous best-postorder
  DP, Liu's hill–valley solver as a segmented-array merge
  (:func:`_liu_vector`) and FiF as an event-driven sweep
  (:func:`_simulate_fif_vector`), with the exact ``(valley − hill,
  rank)`` / heap tie-breaks preserved.

Liu's twin is **depth-capped**: it pays about the same fixed numpy cost
per depth level whatever the level's width, so the deep, narrow part of
a forest runs on the scalar core instead.  A cost model over the
forest's depth histogram (:func:`_liu_cap`) picks the cap; one
:func:`~repro.core.kernels.liu_fill` pass over the subtrees below it
seeds the level sweep, which then runs only the wide levels above.
Small forests and chain-deep ones get a low cap, so the sweep is exact
and safe at any size; below :data:`_LIU_SWEEP_MIN_TREES` trees it is
still slower than the per-tree loop, which
:func:`forest_sweep_pays` tells callers that choose per forest.
``vectorize=False`` still forces the per-tree loop and
``vectorize=True`` the full level sweep, for tests and benchmarks.

Liu's sweep is memoised on the forest (:func:`_liu_memo`), so bounds
and ``OptMinMem`` share one sweep.  :func:`forest_traversals` keeps its
results in flat columns (:class:`ForestTraversals`): the kernels'
schedule column feeds FiF directly (:func:`forest_fif_io`, which any
flat schedule column can use), FiF's eviction array is the dense
I/O column, and :func:`forest_validate` checks the paper's validity
conditions on those same columns in one pass, deferring to the scalar
:func:`~repro.core.traversal.validate` for its messages.

``memories`` arguments accept ``None`` (unbounded), one int for the
whole forest, or one value per tree; bounds beyond int64 are clamped,
which no comparison can tell apart.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence as SequenceABC
from itertools import chain
from typing import Sequence

import numpy as np

from .forest import ArrayForest
from .kernels import (
    best_postorder_core,
    fif_overflow_message,
    fif_stuck_message,
    flatten_rope,
    liu_fill,
    liu_peak_core,
    liu_segments_core,
    simulate_fif_core,
)
from .traversal import Traversal, validate

__all__ = [
    "FOREST_STRATEGIES",
    "ForestTraversals",
    "forest_liu_sweep",
    "forest_lower_bounds",
    "forest_min_peaks",
    "forest_memory_bounds",
    "forest_best_postorders",
    "forest_fif_io",
    "forest_opt_min_mem",
    "forest_simulate_fif",
    "forest_sweep_pays",
    "forest_traversals",
    "forest_validate",
]

#: registry strategies with a whole-forest implementation (the kernel
#: trio; RecExpand-style expansion heuristics stay per-tree).
FOREST_STRATEGIES = ("OptMinMem", "PostOrderMinIO", "PostOrderMinMem")


_INT64 = np.iinfo(np.int64)


def _clamp(m):
    """``m`` clamped into int64 (``None`` stays unbounded).

    Exact for every comparison the kernels make: a need is a sum of the
    forest's int64 weights, so it exceeds a bound beyond ``int64.max``
    exactly when it exceeds ``int64.max`` — never.  (A bound below
    ``int64.min`` is reported at its clamped value.)
    """
    if m is None:
        return None
    return _INT64.max if m > _INT64.max else _INT64.min if m < _INT64.min else m


def _memory_list(memories, n_trees: int) -> list:
    """One memory bound per tree, clamped into int64 (:func:`_clamp`)."""
    if isinstance(memories, bool):
        raise TypeError(
            f"memory bound must be an int or None, got bool ({memories})"
        )
    if memories is None or isinstance(memories, (int, np.integer)):
        return [_clamp(memories)] * n_trees
    memories = list(memories)
    if len(memories) != n_trees:
        raise ValueError(
            f"{len(memories)} memory bounds for {n_trees} trees"
        )
    for k, m in enumerate(memories):
        if isinstance(m, bool):
            raise TypeError(
                f"tree {k}: memory bound must be an int or None, "
                f"got bool ({m})"
            )
    return [_clamp(m) for m in memories]


def forest_lower_bounds(forest: ArrayForest) -> list[int]:
    """``LB = max_i wbar_i`` of every tree — one numpy reduction."""
    if forest.n_trees == 0:
        return []
    off = forest.offsets
    return np.maximum.reduceat(forest._wbar, off[:-1]).tolist()


#: best-postorder vectorised-path guards: below this many trees the
#: batch cannot amortise the fixed numpy costs, and beyond this depth
#: the one-pass-per-level best-postorder sweep would degenerate on
#: chain-shaped forests.
_VECTOR_MIN_TREES = 4
_VECTOR_MAX_DEPTH = 4096

#: FiF's event sweep pays a fixed ~32 µs of numpy calls and then about
#: 0.07 µs a node; the per-tree core pays ~6 µs a tree and ~0.35 µs a
#: node.  Measured on one-tree forests the two meet near 100 nodes (96:
#: 36 against 38 µs; 128: 45 against 40 µs; 1 024: 371 against 100 µs),
#: and on forests of 8-node trees near 50 nodes in all, so the sweep
#: runs from this many nodes, whatever the tree count (EXPERIMENTS.md).
_FIF_VECTOR_MIN_NODES = 96

#: Liu's capped sweep (:func:`_liu_vector`) against the per-tree
#: list-core loop, per tree, on forests of ``service_cold`` trees
#: (64–1 024 nodes): 619 against 476 µs at one tree, about even at 16,
#: 456 against 477 µs at 32 and 362 against 477 µs at 64.  Below this
#: many trees the per-tree cores are the cheaper choice, unless the
#: forest already memoises a sweep's schedules (:func:`forest_sweep_pays`;
#: EXPERIMENTS.md).
_LIU_SWEEP_MIN_TREES = 32

#: the best-postorder sweep emits its schedule top-down, one segmented
#: cumsum per level, when the levels average at least this many nodes;
#: narrower forests pay a few fixed numpy calls per level that way and
#: take the pointer-doubling pass (log₂ rounds over all nodes) instead.
#: Measured crossover on ``perfbench`` ``batch`` units and the
#: ``bench_forest`` corpus: 400–1 000 nodes a level.
_EMIT_LEVEL_MIN_WIDTH = 512

#: FiF's event sweep still walks overflow candidates in Python, and a
#: single huge tight-memory member can contribute a candidate per step,
#: so the auto path keeps very large members on the per-tree core.
_VECTOR_MAX_FIF_STEPS = 4096


def forest_min_peaks(
    forest: ArrayForest, *, vectorize: bool | None = None
) -> list[int]:
    """``Peak_incore`` (Liu's optimum) of every tree.

    ``vectorize=None`` runs the depth-capped segmented solver
    (:func:`_liu_vector`), ``True`` its full level sweep and ``False``
    the per-tree :func:`~repro.core.kernels.liu_peak_core` loop; all
    three produce identical peaks.
    """
    if forest.n_trees == 0:
        return []
    if vectorize is not False:
        peaks, _schedule = _liu_memo(
            forest, schedules=False, full=bool(vectorize)
        )
        return peaks.tolist()
    off, _p, w, _wb, topo, cs, ci = forest._as_lists()
    out = []
    push = out.append
    for k in range(forest.n_trees):
        a = off[k]
        b = off[k + 1]
        push(
            liu_peak_core(
                b - a,
                w[a:b],
                cs[a + k : b + k + 1],
                ci[a - k : b - (k + 1)],
                topo[a:b],
            )
        )
    return out


def forest_memory_bounds(forest: ArrayForest) -> list[tuple[int, int]]:
    """``(LB, Peak_incore)`` per tree — the experiment-framing interval."""
    return list(zip(forest_lower_bounds(forest), forest_min_peaks(forest)))


def forest_best_postorders(
    forest: ArrayForest, memories=None, *, vectorize: bool | None = None
) -> list[tuple[list[int], list[int], list[int]]]:
    """:func:`~repro.core.kernels.best_postorder` across the forest.

    ``memories=None`` is the MinMem variant everywhere; otherwise MinIO
    under the given bound(s).  Returns per-tree ``(schedule, storage,
    vio)`` with node ids local to each tree.

    Two exactly-equivalent implementations back this: the per-tree list
    cores, and a **level-synchronous vectorised engine** that runs
    Liu's DP over all trees at once — one numpy pass per depth level,
    child orderings realised by a single stable sort whose
    ``(-key, id)`` keys reproduce the scalar tie-break bit for bit.
    ``vectorize=None`` picks automatically (vectorised for batches of
    shallow-enough trees); forcing either value is for tests and
    benchmarks only.
    """
    n_trees = forest.n_trees
    if n_trees == 0:
        return []
    mems = _memory_list(memories, n_trees)
    mixed_none = memories is not None and any(m is None for m in mems)
    if vectorize is None:
        vectorize = (
            not mixed_none
            and n_trees >= _VECTOR_MIN_TREES
            and forest.max_depth() <= _VECTOR_MAX_DEPTH
        )
    elif vectorize and mixed_none:
        raise ValueError(
            "the vectorised engine needs one mode for the whole forest; "
            "mixed per-tree None/int memories run on the loop path"
        )
    if vectorize:
        schedule, storage, vio = _best_postorders_vector(
            forest, None if memories is None else mems
        )
        off_l = forest._offsets.tolist()
        sched_l = schedule.tolist()
        storage_l = storage.tolist()
        vio_l = vio.tolist()
        return [
            (sched_l[a:b], storage_l[a:b], vio_l[a:b])
            for a, b in zip(off_l, off_l[1:])
        ]
    off, _p, w, _wb, topo, cs, ci = forest._as_lists()
    out = []
    push = out.append
    for k in range(n_trees):
        a = off[k]
        b = off[k + 1]
        push(
            best_postorder_core(
                b - a,
                w[a:b],
                cs[a + k : b + k + 1],
                ci[a - k : b - (k + 1)],  # fresh slice: core reorders it
                topo[a:b],
                mems[k],
            )
        )
    return out


def forest_best_postorders_flat(
    forest: ArrayForest,
    memories=None,
    *,
    vectorize: bool | None = None,
    schedules: bool = True,
):
    """:func:`forest_best_postorders` in the forest's native flat form.

    Returns ``(schedule, storage, vio)`` as int64 numpy columns over
    the concatenated node space (slice with ``forest.offsets``) —
    element-wise equal to the per-tree lists, without materialising one
    Python list per tree.  ``schedules=False`` skips the emission sweep
    entirely (``schedule`` comes back ``None``): the cheapest way to
    batch-compute peaks (``storage``) and I/O volumes (``vio``).
    """
    n_trees = forest.n_trees
    mems = _memory_list(memories, n_trees)
    mixed_none = memories is not None and any(m is None for m in mems)
    if vectorize is None:
        vectorize = (
            not mixed_none
            and n_trees >= _VECTOR_MIN_TREES
            and forest.max_depth() <= _VECTOR_MAX_DEPTH
        )
    if n_trees and vectorize and not mixed_none:
        return _best_postorders_vector(
            forest, None if memories is None else mems, schedules=schedules
        )
    per_tree = forest_best_postorders(forest, memories, vectorize=False)
    schedule = np.array(
        [v for s, _st, _v in per_tree for v in s], dtype=np.int64
    )
    storage = np.array(
        [v for _s, st, _v in per_tree for v in st], dtype=np.int64
    )
    vio = np.array(
        [v for _s, _st, vi in per_tree for v in vi], dtype=np.int64
    )
    return (schedule if schedules else None), storage, vio


def _group_sort(keys: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Stable order by ``(groups, keys)`` — ``np.lexsort((keys, groups))``.

    ``groups`` must be non-negative and non-decreasing (contiguous
    groups) and ``keys`` non-empty.  Whenever it cannot overflow, one
    composite int64 key ``group * span + (key - lo)`` goes through a
    single stable ``argsort``, several times faster than the two-key
    ``lexsort`` that remains the fallback for key ranges too wide.
    """
    lo = int(keys.min())
    span = int(keys.max()) - lo + 1
    if (int(groups[-1]) + 1) * span <= _INT64.max:
        return np.argsort(groups * span + (keys - lo), kind="stable")
    return np.lexsort((keys, groups))


def _order_level(ch, key, starts, grp, counts, max_arity, multi):
    """Sort a level's child groups by ``(-key, id)``, exactly.

    ``max_arity == 1`` needs no work; all-binary levels resolve with one
    vectorised conditional swap (the scalar core's two-child rule, which
    equals the full sort); anything wider sorts only the edges of
    multi-child groups (``multi``, precomputed on the level cache —
    singleton groups are already ordered) with one stable sort.
    The ascending-id tie-break costs nothing: ``ch`` arrives in CSR
    order (ascending ids within each group) and the stable sort keeps
    that order on equal keys — bit for bit the scalar core's
    ``(-key, id)`` rule.
    """
    if max_arity == 1:
        return ch
    if max_arity == 2:
        kc = key[ch]
        firsts = starts[counts == 2]
        swap = firsts[kc[firsts + 1] > kc[firsts]]
        if swap.size:
            ch = ch.copy()
            ch[swap], ch[swap + 1] = ch[swap + 1], ch[swap]
        return ch
    sub = ch[multi]
    order = _group_sort(-key[sub], grp[multi])
    ch = ch.copy()
    ch[multi] = sub[order]
    return ch


def _best_postorders_vector(forest: ArrayForest, mems, *, schedules=True):
    """The level-synchronous engine behind :func:`forest_best_postorders`.

    Processes depth levels bottom-up: within a level, every node's
    children are ordered by :func:`_order_level` and the ``S_i``/``A_i``
    prefix recursions become segmented cumulative sums plus ``reduceat``
    maxima — integer-exact, same tie-breaking as the scalar core.  The
    schedule then falls out of the block-start rule the scalar core
    applies one node at a time: a node's block start is the path-sum of
    its earlier siblings' subtree sizes, accumulated root-to-node —
    top-down over wide levels, by pointer doubling otherwise
    (:data:`_EMIT_LEVEL_MIN_WIDTH`).
    """
    total = forest.total_nodes
    gcs, gci, gpar, base, tree_of = forest._globals()
    levels = forest._levels()
    w = forest._weights
    minmem = mems is None
    if not minmem:
        M = np.asarray(mems, dtype=np.int64)[tree_of]

    # Leaf values for every node: each internal node is overwritten at
    # its own level before any parent reads it, so no leaf mask is needed.
    storage = w.copy()
    if minmem:
        key = np.zeros(total, dtype=np.int64)
    else:
        key = np.minimum(w, M) - w
    vio = np.zeros(total, dtype=np.int64)
    by_level = schedules and total >= _EMIT_LEVEL_MIN_WIDTH * len(levels)
    if by_level:
        level_chs = []  # each level's sorted children, deepest first
    elif schedules:
        ordered = np.array(gci)  # reordered level by level, like the core

    for level in reversed(levels):
        if level is None:
            continue
        idx, eidx, starts, grp, counts, max_arity, multi = level
        chs = _order_level(gci[eidx], key, starts, grp, counts, max_arity, multi)
        if by_level:
            level_chs.append(chs)
        elif schedules:
            ordered[eidx] = chs

        sc = storage[chs]
        if max_arity == 1:
            peak = np.maximum(w[idx], sc)
            storage[idx] = peak
            if minmem:
                key[idx] = peak - w[idx]
            else:
                m_idx = M[idx]
                vio[idx] = vio[chs]  # min(M, S_c) <= M: no new I/O at idx
                key[idx] = np.minimum(peak, m_idx) - w[idx]
            continue
        # A child's in-group prefix is excl - excl[group start]; the
        # group's constant is taken out of the max instead of repeated
        # per edge.  excl + sc sums disjoint nodes: it stays within the
        # forest-wide weight budget.
        wc = w[chs]
        excl = np.cumsum(wc) - wc
        first = excl[starts]
        peak = np.maximum(
            w[idx], np.maximum.reduceat(sc + excl, starts) - first
        )
        storage[idx] = peak
        if minmem:
            key[idx] = peak - w[idx]
        else:
            m_idx = M[idx]
            worst = (
                np.maximum.reduceat(
                    np.minimum(sc, np.repeat(m_idx, counts)) + excl, starts
                )
                - first
            )
            over = np.maximum(worst - m_idx, 0)
            vio[idx] = over + np.add.reduceat(vio[chs], starts)
            key[idx] = np.minimum(peak, m_idx) - w[idx]

    if not schedules:
        return None, storage, vio

    # Emission: with subtree blocks contiguous and every node closing its
    # own block, a node's block *start* is its parent's plus the sizes of
    # its earlier (sorted) siblings.  Wide levels resolve that top-down,
    # one segmented cumsum per level; otherwise per-edge sibling
    # prefixes are one segmented cumsum over the sorted CSR and the
    # root-path accumulation is pointer doubling — log₂ rounds, no
    # per-level work at all.
    size = forest._subtree_sizes()
    ids = np.arange(total, dtype=np.int64)
    if by_level:
        block_start = np.zeros(total, dtype=np.int64)
        top_down = (level for level in levels if level is not None)
        for level, chs in zip(top_down, reversed(level_chs)):
            idx, _eidx, starts, _grp, counts, _max_arity, _multi = level
            szs = size[chs]
            excl = np.cumsum(szs) - szs
            block_start[chs] = (
                np.repeat(block_start[idx] - excl[starts], counts) + excl
            )
    else:
        cnt_all = gcs[1:] - gcs[:total]
        internal = np.flatnonzero(cnt_all)
        szs = size[ordered]
        excl = np.cumsum(szs) - szs
        contrib = np.zeros(total, dtype=np.int64)
        contrib[ordered] = excl - np.repeat(
            excl[gcs[internal]], cnt_all[internal]
        )
        jump = np.where(gpar < 0, ids, gpar)
        block_start = contrib
        for _ in range(max(1, len(levels) - 1).bit_length()):
            block_start = block_start + block_start[jump]
            jump = jump[jump]

    schedule = np.empty(total, dtype=np.int64)
    schedule[base + block_start + size - 1] = ids - base
    return schedule, storage, vio


def _seg_suffix_records(vals: np.ndarray, grp: np.ndarray) -> np.ndarray:
    """Strict suffix-max records within contiguous groups.

    ``records[i]`` is True iff ``vals[i] > vals[j]`` for every later
    ``j`` of the same group.  Runs a segmented Hillis–Steele scan on
    the reversed arrays — groups are contiguous, so "same group at
    distance ``2^k``" is the whole guard — in log rounds, no offset
    tricks (the values may use the full int64 weight budget).
    """
    m = len(vals)
    if m == 0:
        return np.zeros(0, dtype=bool)
    lo = np.iinfo(np.int64).min
    rv = vals[::-1]
    rg = grp[::-1]
    # rounds only need to span the longest group, not the whole array
    cuts = np.flatnonzero(grp[1:] != grp[:-1])
    if len(cuts):
        runs = np.empty(len(cuts) + 1, dtype=np.int64)
        runs[0] = cuts[0] + 1
        np.subtract(cuts[1:], cuts[:-1], out=runs[1:-1])
        runs[-1] = m - 1 - cuts[-1]
        max_run = int(runs.max())
    else:
        max_run = m
    incl = rv.copy()
    buf = np.empty(m, dtype=np.int64)
    shift = 1
    while shift < max_run:
        buf[:shift] = incl[:shift]
        buf[shift:] = incl[shift:]
        np.maximum(
            incl[shift:],
            incl[:-shift],
            out=buf[shift:],
            where=rg[shift:] == rg[:-shift],
        )
        incl, buf = buf, incl
        shift <<= 1
    excl = np.full(m, lo, dtype=np.int64)
    excl[1:] = np.where(rg[1:] == rg[:-1], incl[:-1], lo)
    return (rv > excl)[::-1].copy()


#: cost model of the depth-capped Liu sweep (:func:`_liu_cap`), in
#: microseconds: one level pass of the vector sweep pays about
#: ``_LIU_LEVEL_US`` of fixed numpy calls whatever its width, and a node
#: solved on the scalar tail costs about ``_LIU_TAIL_NODE_US`` more than
#: the same node on a vector level.  Their ratio is what matters: a
#: level is worth vectorising once it holds more than ~130 nodes.  On
#: the benchmark corpus (``perfbench`` ``batch``) the sweep time is flat
#: for ratios between ~100 and ~170 and rises on both sides.  Re-measure
#: with ``benchmarks/bench_forest.py::test_liu_depth_cap``, which times
#: the capped sweep under neighbouring constants.
_LIU_LEVEL_US = 65.0
_LIU_TAIL_NODE_US = 0.5


def _liu_cap(
    depth_counts: np.ndarray,
    level_us: float = _LIU_LEVEL_US,
    node_us: float = _LIU_TAIL_NODE_US,
) -> int:
    """The depth cap ``D`` that minimises the sweep's modelled cost.

    ``depth_counts[d]`` is the number of nodes at depth ``d``.  A cap
    ``D`` runs ``D + 1`` level passes and leaves every node deeper than
    ``D`` to the scalar tail: ``(D + 1) * level_us + tail * node_us``.
    ``D = -1`` is all-scalar, ``D = max depth`` the full level sweep;
    ties go to the lower cap.
    """
    total = int(depth_counts.sum())
    tail = total - np.cumsum(depth_counts)
    cost = np.arange(1, len(depth_counts) + 1) * level_us + tail * node_us
    best = int(np.argmin(cost))
    return -1 if total * node_us <= cost[best] else best


def _liu_tail(
    forest: ArrayForest, tail: np.ndarray, seed_count: int, ropes: bool
):
    """Solve the subtrees below the cap with the scalar core, one fill.

    ``tail`` lists every node deeper than the cap, by ascending depth;
    its first ``seed_count`` entries are the depth-``D+1`` subtree
    roots.  The tail is renumbered into compact local CSR lists (child
    order kept, so the core's rank tie-break is unchanged) and solved by
    one :func:`~repro.core.kernels.liu_fill` pass, deepest node first.
    Returns the seeds' segments as ``(counts, hills, valleys, sizes,
    nodes)``: segments per seed, then per segment its hill, valley and
    rope length, and the ropes flattened in order (global ids) — with
    ``ropes=False`` the last two are ``None``.
    """
    gcs, gci, _gpar, _base, _tree_of = forest._globals()
    nt = len(tail)
    loc = np.empty(forest.total_nodes, dtype=np.int64)
    loc[tail] = np.arange(nt, dtype=np.int64)
    first = gcs[tail]
    cnt = gcs[tail + 1] - first
    lcs = np.zeros(nt + 1, dtype=np.int64)
    np.cumsum(cnt, out=lcs[1:])
    n_edges = int(lcs[-1])
    eidx = np.repeat(first - lcs[:-1], cnt) + np.arange(n_edges, dtype=np.int64)
    segs: list = [None] * nt
    liu_fill(
        forest._weights[tail].tolist(),
        lcs.tolist(),
        loc[gci[eidx]].tolist(),
        range(nt - 1, -1, -1),
        segs,
    )
    counts = []
    hills = []
    valleys = []
    ends = []
    flat: list[int] = []
    for x in range(seed_count):
        node_segs = segs[x]
        segs[x] = None  # drop each rope once it is flattened
        counts.append(len(node_segs))
        for hill, valley, rope in node_segs:
            hills.append(hill)
            valleys.append(valley)
            if ropes:
                flatten_rope(rope, flat)
                ends.append(len(flat))
    del segs
    sizes = nodes = None
    if ropes:
        sizes = np.diff(np.asarray(ends, dtype=np.int64), prepend=0)
        nodes = tail[np.asarray(flat, dtype=np.int64)]
    return (
        np.asarray(counts, dtype=np.int64),
        np.asarray(hills, dtype=np.int64),
        np.asarray(valleys, dtype=np.int64),
        sizes,
        nodes,
    )


def _liu_vector(
    forest: ArrayForest, *, schedules: bool = True, cap: int | None = None
):
    """Liu's segment solver over the whole forest, depth-capped.

    The subtrees rooted at depth ``cap + 1`` are solved by the scalar
    core (:func:`_liu_tail`) and seed the store; the depths ``0..cap``
    then run level-synchronously, one numpy pass per level, bottom-up.
    ``cap=None`` picks the cap from the forest's depth histogram
    (:func:`_liu_cap`); the private argument exists for tests and
    benchmarks — every cap from ``-1`` (all scalar) to the max depth
    (the full level sweep) gives identical results.

    The *store* holds the canonical hill–valley segment lists of every
    node at the current depth as flat rows.  A level transition replays
    each internal node's merged child deltas exactly like the scalar
    core — items sorted by ``(valley − hill, CSR rank)`` via one stable
    sort (:func:`_group_sort`), the running base a segmented cumsum —
    and then canonicalises the replayed sequence in two closed-form stages
    instead of a stack:

    1. a position ends a canonical segment iff its valley is a strict
       suffix-minimum of the merged sequence (the replayed valleys are
       nondecreasing, so one local comparison decides it);
    2. of the candidate segments (sub-segment hill maxima via
       ``maximum.reduceat``), the survivors are the strict suffix-max
       records of the hills per node (:func:`_seg_suffix_records`);
       merged-away neighbours fold into the record that absorbs them.

    This is the same fixed point the scalar stack reaches (its pops on
    ``hill >= top.hill or valley <= top.valley`` are exactly the
    non-records / non-suffix-minima), so hills, valleys *and* rope
    order match bit for bit.

    With ``schedules=True`` every segment also carries its size and
    start offset, and absorption edges record ``(child segment, owner
    segment, delta)``; since canonicalisation never reorders content,
    a node's final position is its segment's chain of deltas up to the
    root plus its offset inside that segment — ``size − 1`` for a node
    the levels solved (it closes its last segment), its place in the
    flattened rope for a tail node.  The chains resolve by pointer
    doubling, like the vectorised best-postorder emission.  Returns
    ``(peaks, schedule)`` with ``peaks`` int64 per tree and ``schedule``
    a flat local-id column (or ``None``).
    """
    total = forest.total_nodes
    gcs, gci, _gpar, base, _tree_of = forest._globals()
    depth = forest._depths()
    w = forest._weights
    dcount = np.bincount(depth)
    max_depth = len(dcount) - 1
    if cap is None:
        cap = _liu_cap(dcount)
    cap = min(max(cap, -1), max_depth)
    levels = forest._levels(cap) if cap >= 0 else []

    cnt_all = gcs[1:] - gcs[:total]
    if max_depth < 32767:  # int16 keys ride numpy's stable radix sort
        dorder = np.argsort(depth.astype(np.int16), kind="stable")
    else:
        dorder = np.argsort(depth, kind="stable")  # ascending ids per depth
    dbounds = np.zeros(max_depth + 2, dtype=np.int64)
    np.cumsum(dcount, out=dbounds[1:])
    ar = np.arange(total + 1, dtype=np.int64)  # sliced, never mutated
    row_of = np.empty(total, dtype=np.int64)  # node -> store row

    # current-depth store (all empty before the deepest level)
    soff = scnt = shill = svalley = None
    if schedules:
        ssize = sstart = sid = None
        seg_base = 0
        seg_sizes: list[np.ndarray] = []  # per level, concatenates by id
        absorbed: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        last_seg = np.full(total, -1, dtype=np.int64)
        node_off = np.empty(total, dtype=np.int64)  # offset in last_seg

    if cap < max_depth:
        # seed the store at depth cap + 1 from the scalar tail
        lo = int(dbounds[cap + 1])
        seeds = dorder[lo : dbounds[cap + 2]]
        scnt, shill, svalley, ssize, flat = _liu_tail(
            forest, dorder[lo:], len(seeds), schedules
        )
        row_of[seeds] = ar[: len(seeds)]
        soff = np.cumsum(scnt) - scnt
        if schedules:
            nseg = len(ssize)
            sid = ar[:nseg]
            excl = np.cumsum(ssize) - ssize
            sstart = excl - np.repeat(excl[soff], scnt)
            seg_sizes.append(ssize)
            seg_base = nseg
            last_seg[flat] = np.repeat(sid, ssize)
            node_off[flat] = ar[: len(flat)] - np.repeat(excl, ssize)

    for d in range(cap, -1, -1):
        level = levels[d]
        if level is not None:
            idx, eidx, _st, grp_e, _cts, max_arity, _multi = level
            n_par = len(idx)
            w_idx = w[idx]
            chs = gci[eidx]
            rows = row_of[chs]
            cnt = scnt[rows]
            m = int(cnt.sum())
            istarts = np.cumsum(cnt) - cnt
            igrp = np.repeat(ar[: len(chs)], cnt)
            flat = soff[rows][igrp] + (ar[:m] - istarts[igrp])
            sh = shill[flat]
            sv = svalley[flat]
            pv = np.empty(m, dtype=np.int64)  # previous valley in child
            pv[1:] = sv[:-1]
            pv[istarts] = 0
            pg = grp_e[igrp]
            if max_arity == 1:
                # one child per parent: (valley − hill) already strictly
                # increasing along its list — the sort is the identity
                x = sh - pv
                y = sv - pv
                if schedules:
                    iid = sid[flat]
                    isz = ssize[flat]
            else:
                # the sort is stable and ``flat`` is already in CSR-rank
                # (igrp) order, so (parent, valley − hill) alone gives
                # the exact ``(valley − hill, rank)`` tie-break
                order = _group_sort(sv - sh, pg)
                x = (sh - pv)[order]
                y = (sv - pv)[order]
                pg = pg[order]
                if schedules:
                    iid = sid[flat][order]
                    isz = ssize[flat][order]

            # replay the merged deltas on per-parent running bases and
            # interleave each parent's own final item (base_total, w_v)
            mcounts = np.bincount(pg, minlength=n_par)
            tcnt = mcounts + 1
            toff = np.cumsum(tcnt) - tcnt
            T = m + n_par
            tgrp = np.repeat(ar[:n_par], tcnt)
            gstarts = np.cumsum(mcounts) - mcounts
            cpos = ar[:m] + pg  # item → combined slot
            spos = toff + mcounts  # self item → combined slot
            ycum = np.empty(m + 1, dtype=np.int64)
            ycum[0] = 0
            np.cumsum(y, out=ycum[1:])
            base_before = ycum[:m] - ycum[gstarts][pg]
            base_total = ycum[gstarts + mcounts] - ycum[gstarts]
            habs = np.empty(T, dtype=np.int64)
            vabs = np.empty(T, dtype=np.int64)
            habs[cpos] = base_before + x
            vabs[cpos] = base_before + y
            habs[spos] = np.maximum(base_total, w_idx)
            vabs[spos] = w_idx

            # stage 1: strict suffix-min valleys close segments.  The
            # replayed valleys are nondecreasing within a parent (the
            # deltas' y >= 0), so "less than the next slot and less
            # than the final w_v" is the whole test; the final item
            # always closes one.
            nxt = np.empty(T, dtype=np.int64)
            nxt[:-1] = vabs[1:]
            nxt[-1] = 0
            smask = (vabs < nxt) & (vabs < w_idx[tgrp])
            smask[spos] = True
            closers = np.flatnonzero(smask)
            bmask = np.zeros(T, dtype=bool)
            bmask[toff] = True
            bmask[1:] |= smask[:-1]
            bstarts = np.flatnonzero(bmask)
            hseg = np.maximum.reduceat(habs, bstarts)
            cgrp = tgrp[closers]

            # stage 2: strict suffix-max hills survive, the rest merge
            # into the record that dominates them
            rec = _seg_suffix_records(hseg, cgrp)
            surv = closers[rec]
            sgrp = cgrp[rec]
            newh = hseg[rec]
            newv = vabs[surv]
            newcnt = np.bincount(sgrp, minlength=n_par)

            if schedules:
                sizes2 = np.empty(T, dtype=np.int64)
                sizes2[cpos] = isz
                sizes2[spos] = 1
                szcum = np.empty(T + 1, dtype=np.int64)
                szcum[0] = 0
                np.cumsum(sizes2, out=szcum[1:])
                item_off = szcum[:T] - szcum[toff][tgrp]
                ns = len(surv)
                sfirst = np.empty(ns, dtype=bool)
                sfirst[0] = True
                np.not_equal(sgrp[1:], sgrp[:-1], out=sfirst[1:])
                spanstart = np.empty(ns, dtype=np.int64)
                spanstart[sfirst] = toff[sgrp[sfirst]]
                nf = np.flatnonzero(~sfirst)
                spanstart[nf] = surv[nf - 1] + 1
                newsize = szcum[surv + 1] - szcum[spanstart]
                newstart = item_off[spanstart]
                cover = np.searchsorted(surv, cpos)

        # merge the level's survivors with its leaves into the new store
        nodes_d = dorder[dbounds[d] : dbounds[d + 1]]
        nd = len(nodes_d)
        leaf_rows = np.flatnonzero(cnt_all[nodes_d] == 0)
        ncnt = np.empty(nd, dtype=np.int64)
        ncnt[leaf_rows] = 1
        if level is not None:
            int_rows = np.flatnonzero(cnt_all[nodes_d] != 0)
            ncnt[int_rows] = newcnt
        noff = np.cumsum(ncnt) - ncnt
        tot = int(ncnt.sum())
        hill_new = np.empty(tot, dtype=np.int64)
        valley_new = np.empty(tot, dtype=np.int64)
        wl = w[nodes_d[leaf_rows]]
        tgt_leaf = noff[leaf_rows]
        hill_new[tgt_leaf] = wl
        valley_new[tgt_leaf] = wl
        if level is not None:
            srank = ar[: len(surv)] - (np.cumsum(newcnt) - newcnt)[sgrp]
            tgt_int = noff[int_rows][sgrp] + srank
            hill_new[tgt_int] = newh
            valley_new[tgt_int] = newv
        if schedules:
            size_new = np.empty(tot, dtype=np.int64)
            start_new = np.zeros(tot, dtype=np.int64)
            size_new[tgt_leaf] = 1
            ids_new = seg_base + ar[:tot]
            if level is not None:
                size_new[tgt_int] = newsize
                start_new[tgt_int] = newstart
                surv_ids = ids_new[tgt_int]
                absorbed.append(
                    (iid, surv_ids[cover], item_off[cpos] - newstart[cover])
                )
                last_seg[idx] = surv_ids[np.cumsum(newcnt) - 1]
            last_seg[nodes_d[leaf_rows]] = ids_new[tgt_leaf]
            seg_sizes.append(size_new)
            seg_base += tot
            ssize = size_new
            sstart = start_new
            sid = ids_new
        row_of[nodes_d] = ar[:nd]
        scnt = ncnt
        soff = noff
        shill = hill_new
        svalley = valley_new

    peaks = shill[soff]  # store == roots in tree order; hills lead
    if not schedules:
        return peaks, None

    # Resolve positions: every segment's start is its chain of deltas
    # through the owners that absorbed it (one hop per level), anchored
    # at a root-level segment's offset inside the root schedule.
    # Pointer doubling sums the chains; a level-solved node sits
    # ``size − 1`` into its last segment, a tail node where its rope put
    # it.
    nseg = seg_base
    par = np.arange(nseg, dtype=np.int64)
    delta = np.zeros(nseg, dtype=np.int64)
    for cid, pid, dlt in absorbed:
        par[cid] = pid
        delta[cid] = dlt
    rootpos = np.zeros(nseg, dtype=np.int64)
    rootpos[sid] = sstart
    for _ in range(max(1, cap + 2).bit_length()):
        delta = delta + delta[par]
        par = par[par]
    ls = last_seg
    head = dorder[: dbounds[cap + 1]]
    node_off[head] = np.concatenate(seg_sizes)[ls[head]] - 1
    posn = delta[ls] + rootpos[par[ls]] + node_off
    schedule = np.empty(total, dtype=np.int64)
    schedule[base + posn] = ar[:total] - base
    return peaks, schedule


def _liu_memo(forest: ArrayForest, *, schedules: bool, full: bool = False):
    """:func:`_liu_vector`, memoised on the (immutable) forest.

    A cached sweep that emitted schedules also answers a peaks-only
    request; a peaks-only entry never answers one that needs schedules
    — that request runs the full sweep, which then replaces it.  Every
    cap gives the same answer, so one entry serves both the capped sweep
    and ``full`` (the level sweep at every depth).  The cached columns
    are read-only: callers share them.
    """
    cached = forest._liu_cache
    if cached is None or (schedules and cached[1] is None):
        cap = forest.max_depth() if full else None
        cached = _liu_vector(forest, schedules=schedules, cap=cap)
        for col in cached:
            if col is not None:
                col.flags.writeable = False
        forest._liu_cache = cached
    return cached


def forest_liu_sweep(forest: ArrayForest) -> None:
    """Run Liu's schedule-emitting sweep now and memoise it on ``forest``.

    For callers that need both ``Peak_incore`` (the memory bounds) and
    ``OPTMINMEM`` schedules of the same forest: the bounds then read
    their peaks from this one sweep instead of a peaks-only sweep of
    their own.
    """
    if forest.n_trees:
        _liu_memo(forest, schedules=True)


def forest_opt_min_mem(
    forest: ArrayForest, *, vectorize: bool | None = None
) -> list[tuple[list[int], int]]:
    """``OPTMINMEM`` (schedule, peak) of every tree (Liu's segment solver).

    ``vectorize=None`` runs the depth-capped segmented solver
    (:func:`_liu_vector`), ``True`` its full level sweep and ``False``
    the per-tree :func:`~repro.core.kernels.liu_segments_core` loop; all
    three emit identical schedules and peaks.
    """
    if forest.n_trees == 0:
        return []
    if vectorize is not False:
        peaks, schedule = _liu_memo(
            forest, schedules=True, full=bool(vectorize)
        )
        off_l = forest._offsets.tolist()
        sched_l = schedule.tolist()
        peaks_l = peaks.tolist()
        return [
            (sched_l[a:b], pk)
            for a, b, pk in zip(off_l, off_l[1:], peaks_l)
        ]
    off, _p, w, _wb, topo, cs, ci = forest._as_lists()
    out = []
    push = out.append
    for k in range(forest.n_trees):
        a = off[k]
        b = off[k + 1]
        segs = liu_segments_core(
            b - a,
            w[a:b],
            cs[a + k : b + k + 1],
            ci[a - k : b - (k + 1)],
            topo[a:b],
        )
        schedule: list[int] = []
        for _hill, _valley, nodes in segs:
            flatten_rope(nodes, schedule)
        push((schedule, segs[0][0]))
    return out


#: memory sentinel for unbounded trees in the event sweep — only ever
#: compared against needs, never added to, so the max int64 is safe
_FIF_UNBOUNDED = np.int64(2**63 - 1)


def _simulate_fif_vector(
    forest: ArrayForest, sched_local: np.ndarray, mems, *, peaks: bool = True
):
    """FiF over all trees at once — event-driven on a static replay.

    ``sched_local`` is the flat local-id schedule column (tree ``k`` at
    ``offsets[k]:offsets[k+1]``).  Returns ``(evicted, peaks)``:
    ``evicted`` is the dense I/O column over the same node space — tree
    ``k``'s I/O function at its node block — and ``peaks`` the per-tree
    peak memory (``None`` with ``peaks=False``, which skips that pass).

    The *uncapped* replay (children consumed at full weight, nothing
    evicted) is one segmented cumsum over the schedule slots, and
    evictions only ever shrink the true resident total below it — so
    ``uncapped_need > M`` marks a superset of the real overflow steps.
    Only those candidate events run in Python: each keeps the scalar
    core's exact eviction semantics — a lazily-folded min-heap per
    tree over static packed keys (``(-parent position, node)``, the
    core's ``(priority, node)`` tuples, packed into one int whose low
    bits recover the node) — while a per-tree correction ``D`` (evicted
    volume whose consumption step has not passed yet) turns the static
    need into the true one.  Exact peaks come back vectorised: ``D`` is
    piecewise constant between events, so per interval
    ``min(max(static need) - D, M)`` is the capped maximum.

    Infeasibility is decided up front: with a full-tree schedule the
    heap can never run dry (everything resident is evictable), so the
    only reachable raise is ``wbar_v > M`` — checked as one
    comparison, reported for the same tree, step and node the
    per-tree loop would pick.
    """
    from .simulator import InfeasibleSchedule  # circular-safe: lazy

    total = forest.total_nodes
    off = forest._offsets
    off_l = off.tolist()
    n_trees = forest.n_trees
    gcs, gci, gpar, base, tree_of = forest._globals()
    w = forest._weights
    wbar = forest._wbar
    sizes = np.diff(off)

    gsched = sched_local + base  # slot blocks mirror the node blocks
    ids = np.arange(total, dtype=np.int64)
    step_of = np.empty(total, dtype=np.int64)
    step_of[gsched] = ids - base

    M = np.empty(n_trees, dtype=np.int64)
    for k, mk in enumerate(mems):
        M[k] = _FIF_UNBOUNDED if mk is None else mk

    # feasibility, whole-forest at once: first offender in (tree, step)
    # order is exactly where the per-tree loop raises
    bad = wbar[gsched] > M[tree_of]
    if bad.any():
        j = int(np.flatnonzero(bad)[0])
        k = int(tree_of[j])
        raise InfeasibleSchedule(
            fif_overflow_message(
                int(sched_local[j]), int(wbar[gsched[j]]), mems[k]
            )
        )

    # static per-node consume step (the root is never consumed: n) —
    # its negation is the scalar heap priority, and both parts pack
    # into one int key whose low bits map a popped key back to its node
    sp = np.where(gpar >= 0, step_of[np.where(gpar >= 0, gpar, 0)], sizes[tree_of])
    max_n = int(sizes.max())
    kshift = max_n.bit_length()  # local ids < max_n < 2**kshift
    kmask = (1 << kshift) - 1
    ekey = ((max_n - sp) << np.int64(kshift)) + (ids - base)

    # uncapped replay: resident total after step t is the within-tree
    # prefix sum of (w_v - sum of children's weights); the need at t
    # adds wbar_v - cons_v on top of the previous total
    cw = np.empty(len(gci) + 1, dtype=np.int64)
    cw[0] = 0
    np.cumsum(w[gci], out=cw[1:])
    node_cons = cw[gcs[1:]] - cw[gcs[:total]]
    cons_slot = node_cons[gsched]
    cpad = np.empty(total + 1, dtype=np.int64)
    cpad[0] = 0
    np.cumsum(w[gsched] - cons_slot, out=cpad[1:])
    s_need = wbar[gsched] - cons_slot + cpad[ids] - cpad[base]
    cand = np.flatnonzero(s_need > M[tree_of])

    heaps: list[list[int]] = [[] for _ in range(n_trees)]
    fold_mark = [0] * n_trees  # schedule prefix already offered to heap
    corr: list[list[tuple[int, int]]] = [[] for _ in range(n_trees)]
    dshift = [0] * n_trees  # evicted volume not yet consumed
    chg: list[list[tuple[int, int]]] = [[] for _ in range(n_trees)]
    evicted = np.zeros(total, dtype=np.int64)
    heappush = heapq.heappush
    heappop = heapq.heappop
    heapify = heapq.heapify

    for i, k, sn in zip(
        cand.tolist(), tree_of[cand].tolist(), s_need[cand].tolist()
    ):
        bk = off_l[k]
        t = i - bk
        D = dshift[k]
        ch = corr[k]
        while ch and ch[0][0] <= t:  # evicted outputs now consumed
            D -= heappop(ch)[1]
        excess = sn - D - mems[k]
        if excess <= 0:  # static overshoot already paid for by evictions
            dshift[k] = D
            continue
        heap = heaps[k]
        mark = fold_mark[k]
        if mark < t:
            if t - mark <= 8:
                # short backlog (usually one step): scalar pushes
                # beat the fancy-index round trip
                for s in range(bk + mark, bk + t):
                    u = int(gsched[s])
                    if sp[u] > t and w[u] > evicted[u]:
                        heappush(heap, int(ekey[u]))
            else:
                cf = gsched[bk + mark : bk + t]
                cf = cf[(sp[cf] > t) & (w[cf] > evicted[cf])]
                if cf.size:
                    fresh = ekey[cf].tolist()
                    if len(fresh) * 8 < len(heap):
                        for r in fresh:
                            heappush(heap, r)
                    else:
                        heap.extend(fresh)
                        heapify(heap)
            fold_mark[k] = t
        gained = 0
        log = chg[k]
        while excess > 0:
            if not heap:  # unreachable for full-tree schedules
                raise InfeasibleSchedule(
                    fif_stuck_message(
                        t, int(sched_local[i]), excess, mems[k]
                    )
                )
            u = bk + (heap[0] & kmask)
            su = int(sp[u])
            ru = 0 if su <= t else int(w[u]) - int(evicted[u])
            if ru <= 0:
                heappop(heap)
                continue
            take = ru if ru < excess else excess
            evicted[u] += take
            if take == ru:
                heappop(heap)
            heappush(ch, (su, take))
            log.append((su, -take))
            gained += take
            excess -= take
        dshift[k] = D + gained
        log.append((t + 1, gained))

    if not peaks:
        return evicted, None
    # peaks, vectorised: D is piecewise constant between change points,
    # so each interval contributes min(max(static need) - D, M)
    sizes_l = sizes.tolist()
    starts: list[int] = []
    dvals: list[int] = []
    n_int = [1] * n_trees
    for k in range(n_trees):
        bk = off_l[k]
        starts.append(bk)
        dvals.append(0)
        log = chg[k]
        if not log:
            continue
        log.sort()
        n = sizes_l[k]
        D = 0
        for s, dd in log:
            D += dd
            if s >= n:  # past the last step — never observed
                continue
            gs = bk + s
            if gs == starts[-1]:
                dvals[-1] = D
            else:
                starts.append(gs)
                dvals.append(D)
                n_int[k] += 1
    iv_starts = np.asarray(starts, dtype=np.int64)
    iv_d = np.asarray(dvals, dtype=np.int64)
    n_int_arr = np.asarray(n_int, dtype=np.int64)
    iv_tree = np.repeat(np.arange(n_trees, dtype=np.int64), n_int_arr)
    iv_max = np.maximum.reduceat(s_need, iv_starts)
    clamped = np.minimum(iv_max - iv_d, M[iv_tree])
    tstarts = np.cumsum(n_int_arr) - n_int_arr
    return evicted, np.maximum.reduceat(clamped, tstarts).tolist()


def _fif_vectorizable(forest: ArrayForest) -> bool:
    return (
        forest.total_nodes >= _FIF_VECTOR_MIN_NODES
        and int(forest.sizes().max()) <= _VECTOR_MAX_FIF_STEPS
    )


def _fif_loop(forest: ArrayForest, schedules, mems):
    """The per-tree :func:`~repro.core.kernels.simulate_fif_core` loop."""
    off, p, w, wb, _topo, cs, ci = forest._as_lists()
    out = []
    push = out.append
    for k in range(forest.n_trees):
        a = off[k]
        b = off[k + 1]
        push(
            simulate_fif_core(
                b - a,
                w[a:b],
                p[a:b],
                cs[a + k : b + k + 1],
                ci[a - k : b - (k + 1)],
                wb[a:b],
                schedules[k],
                mems[k],
            )
        )
    return out


def forest_simulate_fif(
    forest: ArrayForest,
    schedules: Sequence[Sequence[int]],
    memories=None,
    *,
    vectorize: bool | None = None,
) -> list[tuple[dict[int, int], int, int]]:
    """FiF-simulate one full-tree schedule per member.

    Returns per-tree ``(io, io_volume, peak_memory)`` exactly like the
    flat :func:`~repro.core.kernels.simulate_fif` kernel (and raises
    :class:`~repro.core.simulator.InfeasibleSchedule` where it would).
    ``vectorize=None`` auto-selects between the per-tree loop and the
    event sweep (:func:`_simulate_fif_vector`); both are exact.
    """
    n_trees = forest.n_trees
    if len(schedules) != n_trees:
        raise ValueError(
            f"{len(schedules)} schedules for {n_trees} trees"
        )
    mems = _memory_list(memories, n_trees)
    sizes = forest.sizes().tolist()
    for k, n in enumerate(sizes):
        if len(schedules[k]) != n:
            raise ValueError(
                f"tree {k}: flat FiF kernel needs a full-tree schedule "
                f"(expected {n} nodes, got {len(schedules[k])})"
            )
    if n_trees == 0:
        return []
    if vectorize is None:
        vectorize = _fif_vectorizable(forest)
    if not vectorize:
        return _fif_loop(forest, schedules, mems)
    sched = np.fromiter(
        chain.from_iterable(schedules), np.int64, forest.total_nodes
    )
    evicted, peaks = _simulate_fif_vector(forest, sched, mems)
    off_l = forest._offsets.tolist()
    tree_of = forest._globals()[4]
    io_maps: list[dict[int, int]] = [{} for _ in range(n_trees)]
    hit = np.flatnonzero(evicted)
    for g, k, amount in zip(
        hit.tolist(), tree_of[hit].tolist(), evicted[hit].tolist()
    ):
        io_maps[k][g - off_l[k]] = amount
    volumes = np.add.reduceat(evicted, forest._offsets[:-1]).tolist()
    return list(zip(io_maps, volumes, peaks))


class ForestTraversals(SequenceABC):
    """One traversal per forest member, held as flat columns.

    ``schedule`` and ``io`` are read-only int64 columns over the
    forest's concatenated node space: tree ``k``'s schedule (local ids)
    and dense I/O function sit at ``offsets[k]:offsets[k+1]``.
    ``io_volumes`` are the per-tree sums of that same ``io`` column.
    Indexing materialises member ``k`` as a
    :class:`~repro.core.traversal.Traversal`; consumers that only need
    volumes or a whole-forest check (:func:`forest_validate`) read the
    columns and never build one.
    """

    __slots__ = ("offsets", "schedule", "io", "io_volumes")

    def __init__(
        self, offsets: np.ndarray, schedule: np.ndarray, io: np.ndarray
    ):
        for col in (offsets, schedule, io):
            col.flags.writeable = False
        self.offsets = offsets
        self.schedule = schedule
        self.io = io
        self.io_volumes: list[int] = (
            np.add.reduceat(io, offsets[:-1]).tolist() if len(io) else []
        )

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, k: int) -> Traversal:
        n = len(self)
        if k < 0:
            k += n
        if not 0 <= k < n:
            raise IndexError(f"traversal {k} out of range [0, {n})")
        a = int(self.offsets[k])
        b = int(self.offsets[k + 1])
        return Traversal(
            tuple(self.schedule[a:b].tolist()), tuple(self.io[a:b].tolist())
        )


def forest_fif_io(
    forest: ArrayForest, schedule: np.ndarray, memories
) -> np.ndarray:
    """FiF's dense I/O column for a flat schedule column, in one pass.

    ``schedule`` holds one full-tree schedule per member (local ids, tree
    ``k`` at ``offsets[k]:offsets[k+1]``); a member whose bound is
    ``None`` gets no I/O.  The event sweep (:func:`_simulate_fif_vector`)
    or the per-tree core loop runs, by node counts; both are exact.
    """
    mems = _memory_list(memories, forest.n_trees)
    if _fif_vectorizable(forest):
        return _simulate_fif_vector(forest, schedule, mems, peaks=False)[0]
    off = forest._offsets.tolist()
    sims = _fif_loop(
        forest, [schedule[a:b].tolist() for a, b in zip(off, off[1:])], mems
    )
    io = np.zeros(forest.total_nodes, dtype=np.int64)
    for a, (io_map, _volume, _peak) in zip(off, sims):
        for v, amount in io_map.items():
            io[a + v] = amount
    return io


def forest_traversals(
    forest: ArrayForest, algorithm: str, memories
) -> ForestTraversals:
    """One registry strategy + its FiF I/O function across the forest.

    Mirrors :mod:`repro.experiments.registry` exactly for the strategies
    in :data:`FOREST_STRATEGIES`: the named scheduler produces each
    tree's order, FiF under the tree's memory bound derives the I/O
    function, and member ``k`` of the result equals
    ``get_algorithm(algorithm)(forest.tree(k), memory)``.  The kernels'
    schedule column (the Liu memo or the best-postorder sweep) feeds FiF
    directly, and the result keeps both as columns
    (:class:`ForestTraversals`).
    """
    mems = _memory_list(memories, forest.n_trees)
    if algorithm not in FOREST_STRATEGIES:
        raise KeyError(
            f"no forest kernel for {algorithm!r}; available: "
            f"{FOREST_STRATEGIES}"
        )
    if forest.n_trees == 0:
        empty = np.zeros(0, dtype=np.int64)
        return ForestTraversals(forest.offsets.copy(), empty, empty.copy())
    if algorithm == "OptMinMem":
        schedule = _liu_memo(forest, schedules=True)[1]
    else:
        bound = mems if algorithm == "PostOrderMinIO" else None
        schedule = forest_best_postorders_flat(forest, bound)[0]
    return ForestTraversals(
        forest.offsets.copy(), schedule, forest_fif_io(forest, schedule, mems)
    )


def forest_sweep_pays(forest: ArrayForest, algorithm: str) -> bool:
    """Whether ``algorithm``'s whole-forest sweep beats its per-tree cores.

    Liu's sweep (``OptMinMem``) pays once the forest memoises a sweep's
    schedules, or from :data:`_LIU_SWEEP_MIN_TREES` trees; the best
    postorders' level sweep under the guards of
    :func:`forest_best_postorders`.  :func:`forest_traversals` is exact
    either way — this only says which is cheaper.
    """
    if algorithm == "OptMinMem":
        cached = forest._liu_cache
        return (cached is not None and cached[1] is not None) or (
            forest.n_trees >= _LIU_SWEEP_MIN_TREES
        )
    return (
        algorithm in FOREST_STRATEGIES
        and forest.n_trees >= _VECTOR_MIN_TREES
        and forest.max_depth() <= _VECTOR_MAX_DEPTH
    )


def forest_validate(
    forest: ArrayForest, traversals: Sequence[Traversal], memories
) -> None:
    """:func:`~repro.core.traversal.validate` for every member in one pass.

    Checks the paper's three validity conditions (Section 3.1) across
    the whole forest with the idioms of the FiF sweep:

    1. a topological permutation — a scatter of the schedules' node ids
       (every node hit exactly once) and of their positions (every child
       before its parent);
    2. ``0 <= tau(i) <= w_i`` — elementwise on the concatenated I/O;
    3. the memory condition — one segmented cumsum over schedule order:
       ``need = wbar[v] + resident_before - sum_children (w_c - tau_c)``
       against the tree's bound, the CSR child sums taken by
       ``np.add.reduceat``.

    A :class:`ForestTraversals` of this forest is checked on its own
    columns — the ones its ``io_volumes`` are summed from; any other
    sequence of :class:`~repro.core.traversal.Traversal` is packed into
    the same columns first and runs the same checks.

    Scalar :func:`~repro.core.traversal.validate` stays the oracle: when
    any member fails, it is re-run on the lowest-index failing member,
    so the :class:`~repro.core.traversal.InvalidTraversal` raised is the
    one (message included) a per-tree loop would raise first.
    Traversals carry integer ids and amounts, as every solver emits;
    ``memories`` is one int for the forest or one per tree.
    """
    n_trees = forest.n_trees
    if len(traversals) != n_trees:
        raise ValueError(f"{len(traversals)} traversals for {n_trees} trees")
    mems = _memory_list(memories, n_trees)
    if n_trees == 0:
        return
    if isinstance(traversals, ForestTraversals) and np.array_equal(
        traversals.offsets, forest.offsets
    ):
        sched, io, first = traversals.schedule, traversals.io, n_trees
    else:
        try:
            sched, io, first = _pack_traversals(forest, traversals)
        except OverflowError:  # ids or amounts beyond int64: the oracle decides
            for k in range(n_trees):
                validate(forest.tree(k), traversals[k], mems[k])
            return
    first = _first_invalid_member(forest, sched, io, mems, first)
    if first is not None:
        validate(forest.tree(first), traversals[first], mems[first])
        raise RuntimeError(
            f"forest_validate rejects tree {first}, which validate accepts"
        )


def _pack_traversals(forest: ArrayForest, traversals):
    """``(schedule, io, first)`` columns of a list of traversals.

    A member whose schedule or io is not node-aligned fails outright:
    ``first`` is the lowest such index (``n_trees`` if none), and a
    placeholder keeps the columns node-aligned for the other checks.
    """
    n_trees = forest.n_trees
    scheds = [t.schedule for t in traversals]
    ios = [t.io for t in traversals]
    first = n_trees
    for k, n in enumerate(forest.sizes().tolist()):
        if len(scheds[k]) != n or len(ios[k]) != n:
            first = min(first, k)
            scheds[k] = ios[k] = [0] * n
    total = forest.total_nodes
    sched = np.fromiter(chain.from_iterable(scheds), np.int64, total)
    io = np.fromiter(chain.from_iterable(ios), np.int64, total)
    return sched, io, first


def _first_invalid_member(forest, sched, io, mems, first) -> int | None:
    """Lowest member index failing a validity condition (or ``first``,
    if lower), or None when every member is valid."""
    n_trees = forest.n_trees
    total = forest.total_nodes
    gcs, gci, gpar, base, tree_of = forest._globals()
    w = forest._weights
    sizes = forest.sizes()

    # 1. permutation: in-range ids, every node scheduled exactly once;
    # precedence by the scattered positions (slot blocks mirror node
    # blocks, so base/tree_of index slots too)
    ids = np.arange(total, dtype=np.int64)
    in_range = (sched >= 0) & (sched < sizes[tree_of])
    gsched = np.where(in_range, sched + base, base)
    bad = ~in_range
    bad |= np.bincount(gsched, minlength=total) != 1
    pos = np.full(total, -1, dtype=np.int64)  # -1: never scheduled
    pos[gsched] = ids
    nonroot = gpar >= 0
    bad |= nonroot & (pos >= pos[gpar])

    # 2. io bounds; out-of-range amounts are zeroed so the memory sums
    # below stay inside the forest's int64 budget
    io_bad = (io < 0) | (io > w)
    bad |= io_bad
    resid = w - np.where(io_bad, 0, io)  # resident part of each output

    # 3. memory: the children's resident parts leave memory when their
    # parent runs (they are inside wbar), its own enters after
    child_sum = np.zeros(total, dtype=np.int64)
    internal = np.flatnonzero(gcs[1:] > gcs[:-1])
    if len(internal):
        child_sum[internal] = np.add.reduceat(resid[gci], gcs[internal])
    delta = np.where(nonroot, resid, 0) - child_sum
    step = delta[gsched]
    before = np.cumsum(step) - step
    need = forest._wbar[gsched] - child_sum[gsched] + before - before[base]
    bounds = np.array(mems, dtype=np.int64)
    bad |= need > bounds[tree_of]

    hits = np.flatnonzero(bad)
    if len(hits):
        first = min(first, int(tree_of[hits[0]]))
    return None if first == n_trees else first
