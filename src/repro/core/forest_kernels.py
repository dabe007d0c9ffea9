"""Whole-forest sweeps of the hot algorithms over :class:`ArrayForest`.

Each function runs one kernel across every member of a forest in a
tight loop: the concatenated columns are converted to plain lists once
(cached on the forest), each tree's slice is cut out with C-level list
slicing, and the **same list-based cores** that power the per-tree
array engine (:mod:`repro.core.kernels`) do the actual work.  Per-tree
results are therefore byte-identical to ``kernels.best_postorder`` /
``liu_peak`` / ``liu_schedule`` / ``simulate_fif`` on the member trees —
one implementation, enforced by the forest property test
(``tests/test_forest.py``) on top of the engine cross-validation
harness.

What the batching buys (vs. dispatching the per-tree engine once per
tree): no per-tree ``TaskTree``/``ArrayTree`` construction, no per-tree
numpy fixed costs, no per-call buffer materialisation — only the
irreducible algorithm loops remain.  And every forest strategy now has
a loop-free twin: besides the single-reduction passes
(:func:`forest_lower_bounds`) and the level-synchronous best-postorder
DP, Liu's hill–valley solver runs as a segmented-array merge over all
trees at once (:func:`_liu_vector`) and FiF as an event-driven sweep
(:func:`_simulate_fif_vector`) — each byte-identical to its list core,
with the exact ``(valley − hill, rank)`` / heap tie-breaks preserved,
enforced by ``tests/test_forest.py``.  The loop cores stay reachable
(``vectorize=False``, small batches, degenerate shapes) and are the
single source of truth.

Liu's sweep is memoised on the forest (:func:`_liu_memo`), so bounds
and ``OptMinMem`` share one sweep, and :func:`forest_validate` checks
the paper's validity conditions for every member in one pass, deferring
to the scalar :func:`~repro.core.traversal.validate` for its messages.

``memories`` arguments accept ``None`` (unbounded), one int for the
whole forest, or one value per tree.
"""

from __future__ import annotations

import heapq
from itertools import chain
from typing import Sequence

import numpy as np

from .forest import ArrayForest
from .kernels import (
    best_postorder_core,
    fif_overflow_message,
    fif_stuck_message,
    flatten_rope,
    liu_peak_core,
    liu_segments_core,
    simulate_fif_core,
)
from .traversal import Traversal, validate

__all__ = [
    "FOREST_STRATEGIES",
    "forest_liu_sweep",
    "forest_lower_bounds",
    "forest_min_peaks",
    "forest_memory_bounds",
    "forest_best_postorders",
    "forest_opt_min_mem",
    "forest_simulate_fif",
    "forest_traversals",
    "forest_validate",
]

#: registry strategies with a whole-forest implementation (the kernel
#: trio; RecExpand-style expansion heuristics stay per-tree).
FOREST_STRATEGIES = ("OptMinMem", "PostOrderMinIO", "PostOrderMinMem")


def _memory_list(memories, n_trees: int) -> list:
    if isinstance(memories, bool):
        raise TypeError(
            f"memory bound must be an int or None, got bool ({memories})"
        )
    if memories is None or isinstance(memories, (int, np.integer)):
        return [memories] * n_trees
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
    return memories


def forest_lower_bounds(forest: ArrayForest) -> list[int]:
    """``LB = max_i wbar_i`` of every tree — one numpy reduction."""
    if forest.n_trees == 0:
        return []
    off = forest.offsets
    return np.maximum.reduceat(forest._wbar, off[:-1]).tolist()


#: vectorised-path guards: below this many trees the batch cannot
#: amortise the fixed numpy costs, and beyond this depth the one-pass-
#:per-level schedule would degenerate on chain-shaped forests.
_VECTOR_MIN_TREES = 4
_VECTOR_MAX_DEPTH = 4096
#: FiF's event sweep still walks overflow candidates in Python, and a
#: single huge tight-memory member can contribute a candidate per step,
#: so the auto path keeps very large members on the per-tree core.
_VECTOR_MAX_FIF_STEPS = 4096


def _liu_vectorizable(forest: ArrayForest) -> bool:
    return (
        forest.n_trees >= _VECTOR_MIN_TREES
        and forest.max_depth() <= _VECTOR_MAX_DEPTH
    )


def forest_min_peaks(
    forest: ArrayForest, *, vectorize: bool | None = None
) -> list[int]:
    """``Peak_incore`` (Liu's optimum) of every tree.

    ``vectorize=None`` auto-selects between the per-tree
    :func:`~repro.core.kernels.liu_peak_core` loop and the
    level-synchronous segmented solver (:func:`_liu_vector`); both
    produce identical peaks.
    """
    if forest.n_trees == 0:
        return []
    if vectorize is None:
        vectorize = _liu_vectorizable(forest)
    if vectorize:
        return _liu_memo(forest, schedules=False)[0].tolist()
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
    child orderings realised by a single ``lexsort`` whose
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


def _order_level(ch, key, starts, grp, counts, max_arity, multi):
    """Sort a level's child groups by ``(-key, id)``, exactly.

    ``max_arity == 1`` needs no work; all-binary levels resolve with one
    vectorised conditional swap (the scalar core's two-child rule, which
    equals the full sort); anything wider sorts only the edges of
    multi-child groups (``multi``, precomputed on the level cache —
    singleton groups are already ordered) with one stable ``lexsort``.
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
    order = np.lexsort((-key[sub], grp[multi]))
    ch = ch.copy()
    ch[multi] = sub[order]
    return ch


def _best_postorders_vector(forest: ArrayForest, mems, *, schedules=True):
    """The level-synchronous engine behind :func:`forest_best_postorders`.

    Processes depth levels bottom-up: within a level, every node's
    children are ordered by :func:`_order_level` and the ``S_i``/``A_i``
    prefix recursions become segmented cumulative sums plus ``reduceat``
    maxima — integer-exact, same tie-breaking as the scalar core.  The
    schedule then falls out of one *global* pass: a node's block start
    is the path-sum of its earlier-siblings' subtree sizes, accumulated
    root-to-node by pointer doubling — the same contiguous-block
    emission rule the scalar core applies one node at a time.
    """
    off = forest._offsets
    total = forest.total_nodes
    gcs, gci, gpar, base, tree_of = forest._globals()
    levels = forest._levels()
    w = forest._weights
    minmem = mems is None
    if not minmem:
        M = np.asarray(mems, dtype=np.int64)[tree_of]

    storage = np.zeros(total, dtype=np.int64)
    key = np.zeros(total, dtype=np.int64)
    vio = np.zeros(total, dtype=np.int64)
    if schedules:
        ordered = np.array(gci)  # reordered level by level, like the core

    cnt_all = gcs[1:] - gcs[:total]
    leaves = cnt_all == 0
    storage[leaves] = w[leaves]
    if not minmem:
        key[leaves] = np.minimum(w[leaves], M[leaves]) - w[leaves]

    for level in reversed(levels):
        if level is None:
            continue
        idx, eidx, starts, grp, counts, max_arity, multi = level
        chs = _order_level(gci[eidx], key, starts, grp, counts, max_arity, multi)
        if schedules:
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
        wc = w[chs]
        excl = np.cumsum(wc) - wc
        prefix = excl - np.repeat(excl[starts], counts)
        peak = np.maximum(
            w[idx], np.maximum.reduceat(sc + prefix, starts)
        )
        storage[idx] = peak
        if minmem:
            key[idx] = peak - w[idx]
        else:
            m_idx = M[idx]
            worst = np.maximum.reduceat(
                np.minimum(sc, np.repeat(m_idx, counts)) + prefix, starts
            )
            over = np.maximum(worst - m_idx, 0)
            vio[idx] = over + np.add.reduceat(vio[chs], starts)
            key[idx] = np.minimum(peak, m_idx) - w[idx]

    if not schedules:
        return None, storage, vio

    # Emission, globally: with subtree blocks contiguous and every node
    # closing its own block, a node's block *start* is the sum of its
    # earlier (sorted) siblings' sizes accumulated along the root path.
    # Per-edge sibling prefixes are one segmented cumsum over the sorted
    # CSR; the root-path accumulation is pointer doubling — log₂ rounds,
    # no per-level work at all.
    size = forest._subtree_sizes()
    internal = np.flatnonzero(~leaves)
    szs = size[ordered]
    excl = np.cumsum(szs) - szs
    contrib = np.zeros(total, dtype=np.int64)
    contrib[ordered] = excl - np.repeat(excl[gcs[internal]], cnt_all[internal])
    ids = np.arange(total, dtype=np.int64)
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


def _liu_vector(forest: ArrayForest, *, schedules: bool = True):
    """Liu's segment solver, level-synchronously over the whole forest.

    One numpy pass per depth level, bottom-up.  The *store* holds the
    canonical hill–valley segment lists of every node at the current
    depth as flat rows.  A level transition replays each internal
    node's merged child deltas exactly like the scalar core — items
    sorted by ``(valley − hill, CSR rank)`` via one stable ``lexsort``,
    the running base a segmented cumsum — and then canonicalises the
    replayed sequence in two closed-form stages instead of a stack:

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
    a node's final position is its last segment's chain of deltas up
    to the root — resolved by pointer doubling, like the vectorised
    best-postorder emission.  Returns ``(peaks, schedule)`` with
    ``peaks`` int64 per tree and ``schedule`` a flat local-id column
    (or ``None``).
    """
    total = forest.total_nodes
    gcs, gci, _gpar, base, _tree_of = forest._globals()
    levels = forest._levels()
    depth = forest._depths()
    w = forest._weights
    n_levels = len(levels)

    cnt_all = gcs[1:] - gcs[:total]
    if n_levels <= 32767:  # int16 keys ride numpy's stable radix sort
        dorder = np.argsort(depth.astype(np.int16), kind="stable")
    else:
        dorder = np.argsort(depth, kind="stable")  # ascending ids per depth
    dbounds = np.searchsorted(
        depth[dorder], np.arange(n_levels + 1, dtype=np.int64)
    )
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

    for d in range(n_levels - 1, -1, -1):
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
                # lexsort is stable and ``flat`` is already in CSR-rank
                # (igrp) order, so (valley − hill, parent) alone gives
                # the exact ``(valley − hill, rank)`` tie-break
                order = np.lexsort((sv - sh, pg))
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
    # through the owners that absorbed it, anchored at a root-level
    # segment's offset inside the root schedule.  Pointer doubling sums
    # the chains; a node sits ``size − 1`` into its last segment.
    nseg = seg_base
    par = np.arange(nseg, dtype=np.int64)
    delta = np.zeros(nseg, dtype=np.int64)
    for cid, pid, dlt in absorbed:
        par[cid] = pid
        delta[cid] = dlt
    rootpos = np.zeros(nseg, dtype=np.int64)
    rootpos[sid] = sstart
    for _ in range(max(1, n_levels).bit_length()):
        delta = delta + delta[par]
        par = par[par]
    size_by_id = np.concatenate(seg_sizes)
    ls = last_seg
    posn = delta[ls] + rootpos[par[ls]] + size_by_id[ls] - 1
    schedule = np.empty(total, dtype=np.int64)
    schedule[base + posn] = ar[:total] - base
    return peaks, schedule


def _liu_memo(forest: ArrayForest, *, schedules: bool):
    """:func:`_liu_vector`, memoised on the (immutable) forest.

    A cached sweep that emitted schedules also answers a peaks-only
    request; a peaks-only entry never answers one that needs schedules
    — that request runs the full sweep, which then replaces it.
    """
    cached = forest._liu_cache
    if cached is None or (schedules and cached[1] is None):
        cached = _liu_vector(forest, schedules=schedules)
        forest._liu_cache = cached
    return cached


def forest_liu_sweep(forest: ArrayForest) -> None:
    """Run Liu's schedule-emitting sweep now and memoise it on ``forest``.

    For callers that need both ``Peak_incore`` (the memory bounds) and
    ``OPTMINMEM`` schedules of the same forest: the bounds then read
    their peaks from this one sweep instead of a peaks-only sweep of
    their own.  A no-op where the loop cores serve the forest.
    """
    if _liu_vectorizable(forest):
        _liu_memo(forest, schedules=True)


def forest_opt_min_mem(
    forest: ArrayForest, *, vectorize: bool | None = None
) -> list[tuple[list[int], int]]:
    """``OPTMINMEM`` (schedule, peak) of every tree (Liu's segment solver).

    ``vectorize=None`` auto-selects between the per-tree
    :func:`~repro.core.kernels.liu_segments_core` loop and the
    level-synchronous segmented solver (:func:`_liu_vector`); the two
    paths emit identical schedules and peaks.
    """
    if forest.n_trees == 0:
        return []
    if vectorize is None:
        vectorize = _liu_vectorizable(forest)
    if vectorize:
        peaks, schedule = _liu_memo(forest, schedules=True)
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
    forest: ArrayForest, schedules, mems
) -> list[tuple[dict[int, int], int, int]]:
    """FiF over all trees at once — event-driven on a static replay.

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

    sched_local = np.concatenate(
        [np.asarray(s, dtype=np.int64) for s in schedules]
    )
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
    io_maps: list[dict[int, int]] = [{} for _ in range(n_trees)]
    io_total = [0] * n_trees
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
        iok = io_maps[k]
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
            lu = u - bk
            iok[lu] = iok.get(lu, 0) + take
            if take == ru:
                heappop(heap)
            heappush(ch, (su, take))
            log.append((su, -take))
            gained += take
            excess -= take
        io_total[k] += gained
        dshift[k] = D + gained
        log.append((t + 1, gained))

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
    peak_l = np.maximum.reduceat(clamped, tstarts).tolist()
    return [
        (io_maps[k], io_total[k], peak_l[k]) for k in range(n_trees)
    ]


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
        vectorize = (
            n_trees >= _VECTOR_MIN_TREES
            and max(sizes) <= _VECTOR_MAX_FIF_STEPS
        )
    if vectorize:
        return _simulate_fif_vector(forest, schedules, mems)
    off, p, w, wb, _topo, cs, ci = forest._as_lists()
    out = []
    push = out.append
    for k in range(n_trees):
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


def forest_traversals(
    forest: ArrayForest, algorithm: str, memories
) -> list[Traversal]:
    """One registry strategy + its FiF I/O function across the forest.

    Mirrors :mod:`repro.experiments.registry` exactly for the strategies
    in :data:`FOREST_STRATEGIES`: the named scheduler produces each
    tree's order, FiF under the tree's memory bound derives the I/O
    function, and the pair is packaged as a dense
    :class:`~repro.core.traversal.Traversal` — byte-identical to
    ``get_algorithm(algorithm)(tree, memory)``.
    """
    mems = _memory_list(memories, forest.n_trees)
    if algorithm == "OptMinMem":
        schedules = [s for s, _peak in forest_opt_min_mem(forest)]
    elif algorithm == "PostOrderMinIO":
        schedules = [s for s, _st, _v in forest_best_postorders(forest, mems)]
    elif algorithm == "PostOrderMinMem":
        schedules = [s for s, _st, _v in forest_best_postorders(forest, None)]
    else:
        raise KeyError(
            f"no forest kernel for {algorithm!r}; available: "
            f"{FOREST_STRATEGIES}"
        )
    sims = forest_simulate_fif(forest, schedules, mems)
    traversals = []
    for schedule, (io, _vol, _peak) in zip(schedules, sims):
        dense = [0] * len(schedule)  # FiF's I/O maps are sparse
        for v, amount in io.items():
            dense[v] = amount
        traversals.append(Traversal(tuple(schedule), tuple(dense)))
    return traversals


_INT64 = np.iinfo(np.int64)


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
    try:
        first = _first_invalid_member(forest, traversals, mems)
    except OverflowError:  # ids or amounts beyond int64: the oracle decides
        for k in range(n_trees):
            validate(forest.tree(k), traversals[k], mems[k])
        return
    if first is not None:
        validate(forest.tree(first), traversals[first], mems[first])
        raise RuntimeError(
            f"forest_validate rejects tree {first}, which validate accepts"
        )


def _first_invalid_member(forest, traversals, mems) -> int | None:
    """Index of the lowest member failing a validity condition, or None."""
    n_trees = forest.n_trees
    total = forest.total_nodes
    gcs, gci, gpar, base, tree_of = forest._globals()
    w = forest._weights
    sizes = forest.sizes()

    # shape faults (schedule or io not node-aligned) fail outright; a
    # placeholder keeps the concatenated layout node-aligned for the rest
    scheds = [t.schedule for t in traversals]
    ios = [t.io for t in traversals]
    first = n_trees
    for k, n in enumerate(sizes.tolist()):
        if len(scheds[k]) != n or len(ios[k]) != n:
            first = min(first, k)
            scheds[k] = ios[k] = [0] * n
    sched = np.fromiter(chain.from_iterable(scheds), np.int64, total)
    io = np.fromiter(chain.from_iterable(ios), np.int64, total)

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
    bounds = np.array(
        [min(max(m, _INT64.min), _INT64.max) for m in mems], dtype=np.int64
    )
    bad |= need > bounds[tree_of]

    hits = np.flatnonzero(bad)
    if len(hits):
        first = min(first, int(tree_of[hits[0]]))
    return None if first == n_trees else first
