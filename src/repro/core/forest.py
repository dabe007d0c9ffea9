"""Many-tree batches as one structure of arrays: :class:`ArrayForest`.

The paper's experiments and the service's traffic are dominated by
*many small-to-medium trees*, not one giant tree.  Solving them one
:class:`~repro.core.arraytree.ArrayTree` at a time pays a fixed cost per
tree — a dozen numpy calls for construction and validation, a Python
object per tree, a pickle of two element lists per process hop.  At 64
to 512 nodes per tree that overhead rivals the actual solve.

``ArrayForest`` amortises all of it across a whole batch:

* ``offsets`` (length ``n_trees + 1``) delimits each tree's node block,
  CSR-style; all node columns are **concatenated int64 buffers** with
  node ids *local to their tree* (each tree's parent column has its own
  ``-1`` root), so a tree's slice is exactly the buffer the per-tree
  kernels consume;
* construction from raw ``(offsets, parents, weights)`` columns is a
  single vectorised pass over the whole forest — validation, CSR
  children, and ``wbar`` are O(total nodes) of numpy work, never one
  numpy call per tree; the only per-node Python loop is the canonical
  per-tree BFS (the same loop ``ArrayTree`` runs);
* ``pack()``/``from_packed()`` give a canonical raw-buffer wire form
  (one header + three int64 columns) used by the service's
  shared-memory transport and the buffer-digest cache keys — shipping a
  forest costs a memcpy, not a pickle of Python int lists.

Derived per-tree structures are **byte-identical** to what
``ArrayTree(parents, weights)`` builds for each member (the forest
property test asserts it), so :meth:`tree` can materialise any member
without re-validation and the forest sweeps in
:mod:`repro.core.forest_kernels` inherit the kernels' exactness
guarantees.

Layout bookkeeping (``k`` a tree, ``a = offsets[k]``, ``b = offsets[k+1]``,
``n_k = b - a``):

* node columns (``parents``/``weights``/``wbar``/``topo``): slice ``[a:b]``;
* ``child_start`` concatenates each tree's ``n_k + 1`` local CSR offsets,
  so tree ``k`` occupies ``[a + k : b + k + 1]``;
* ``child_index`` concatenates each tree's ``n_k - 1`` local child ids,
  so tree ``k`` occupies ``[a - k : b - (k + 1)]``.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .arraytree import (
    ArrayTree,
    _CSRChildren,
    _from_numpy,
    _int64_column,
    _MAX_TOTAL_WEIGHT,
    as_array_tree,
)
from .tree import TaskTree, TreeError

__all__ = ["ArrayForest"]


def _stable_argsort_ids(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")`` for non-negative ids.

    Below 2**32 it runs as two 16-bit passes of numpy's stable radix
    sort (least significant digit first) — the same permutation in
    linear time, where a 64-bit stable sort is a merge sort.
    """
    if len(values) == 0 or int(values.max()) > 0xFFFFFFFF:
        return np.argsort(values, kind="stable")
    low = np.argsort((values & 0xFFFF).astype(np.uint16), kind="stable")
    high = (values[low] >> 16).astype(np.uint16)
    return low[np.argsort(high, kind="stable")]


#: vectorised BFS rounds before construction falls back to the C-level
#: list BFS — bounds the numpy-call count on degenerate deep forests.
_BFS_VECTOR_LEVELS = 1024


class ArrayForest:
    """N rooted trees packed into concatenated flat int64 buffers.

    Construct from raw concatenated columns (``ArrayForest(offsets,
    parents, weights)``, fully validated in vectorised passes), from
    already-validated trees (:meth:`from_trees`, which concatenates
    their derived buffers directly), from per-tree ``(parents,
    weights)`` pairs (:meth:`from_pairs`), from a packed wire buffer
    (:meth:`from_packed`), or as some members of another forest
    (:meth:`subset`).

    Error messages from the vectorised validation use *global* node
    indices (forest-wide positions) with the owning tree named where the
    check is per-tree.
    """

    __slots__ = (
        "_n_trees",
        "_total",
        "_offsets",
        "_parents",
        "_weights",
        "_wbar",
        "_roots_local",
        "_topo_cache",
        "_child_start",
        "_child_index",
        "_totals",
        "_lists",
        "_globals_cache",
        "_depth_cache",
        "_levels_cache",
        "_subtree_sizes_cache",
        "_liu_cache",
    )

    def __init__(
        self,
        offsets: Sequence[int],
        parents: Sequence[int],
        weights: Sequence[int],
    ):
        off = np.asarray(offsets, dtype=np.int64)
        if off.ndim != 1 or len(off) < 1 or off[0] != 0:
            raise TreeError("offsets must be a flat sequence starting at 0")
        if np.any(np.diff(off) < 1):
            raise TreeError("every tree in a forest needs at least one node")
        n_trees = len(off) - 1
        total = int(off[-1]) if n_trees else 0
        if len(parents) != total or len(weights) != total:
            raise TreeError(
                f"columns disagree with offsets: {len(parents)} parents, "
                f"{len(weights)} weights, {total} nodes expected"
            )

        self._n_trees = n_trees
        self._total = total
        self._offsets = off
        self._lists = None
        self._globals_cache = None
        self._depth_cache = None
        self._levels_cache = None
        self._subtree_sizes_cache = None
        self._liu_cache = None
        self._topo_cache = None
        if n_trees == 0:
            empty = np.zeros(0, dtype=np.int64)
            self._parents = self._weights = self._wbar = empty
            self._roots_local = empty
            self._topo_cache = empty
            self._child_index = empty
            self._child_start = empty
            self._totals = empty
            return

        p = _int64_column(parents, "parent", strict=False)
        w = _int64_column(weights, "weight", strict=True)

        neg = np.flatnonzero(w < 0)
        if len(neg):
            i = int(neg[0])
            raise TreeError(f"weight of node {i} is negative: {int(w[i])}")
        # Per-tree weight budget: overflow-safe float estimate first, the
        # exact int64 sums after (guaranteed exact once the check passed).
        estimates = np.add.reduceat(w.astype(np.float64), off[:-1])
        if np.any(estimates > _MAX_TOTAL_WEIGHT):
            k = int(np.argmax(estimates > _MAX_TOTAL_WEIGHT))
            raise TreeError(
                f"tree {k}: total weight ~{estimates[k]:.3g} exceeds the "
                f"array engine's int64 budget ({_MAX_TOTAL_WEIGHT})"
            )
        if float(np.sum(estimates)) > _MAX_TOTAL_WEIGHT:
            # The vectorised forest kernels run prefix sums over whole
            # node levels, so the *forest-wide* weight total must keep
            # the same int64 headroom a single tree does.
            raise TreeError(
                f"forest-wide total weight exceeds the int64 budget "
                f"({_MAX_TOTAL_WEIGHT}); solve these trees one at a time"
            )
        totals = np.add.reduceat(w, off[:-1])

        sizes = np.diff(off)
        tree_of = np.repeat(np.arange(n_trees, dtype=np.int64), sizes)
        base = off[tree_of]

        roots = np.flatnonzero(p == -1)
        root_counts = np.bincount(tree_of[roots], minlength=n_trees)
        if np.any(root_counts != 1):
            k = int(np.argmax(root_counts != 1))
            raise TreeError(
                f"tree {k}: {'no root (node with parent -1) found' if root_counts[k] == 0 else 'more than one root'}"
            )
        bad = np.flatnonzero((p < -1) | (p >= sizes[tree_of]))
        if len(bad):
            i = int(bad[0])
            raise TreeError(f"node {i} has out-of-range parent {int(p[i])}")

        self._parents = np.ascontiguousarray(p)
        self._weights = np.ascontiguousarray(w)
        self._totals = totals

        # Children in CSR form, one global pass: grouping the non-root
        # nodes by *global* parent id with a stable argsort reproduces,
        # tree by tree, exactly the per-tree construction of ArrayTree
        # (parents of tree k occupy one contiguous id block, and within
        # it children keep ascending ids).
        nonroot = np.flatnonzero(p >= 0)
        gpar = p[nonroot] + base[nonroot]
        counts = np.bincount(gpar, minlength=total)
        child_index = nonroot[_stable_argsort_ids(gpar)]
        gcs = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(counts, out=gcs[1:])
        # The tree-local CSR (child ids relative to their tree,
        # child_start slices rebased to 0) is derived lazily from these
        # global arrays — only per-tree consumers ever need it; the
        # vectorised sweeps work on the global form directly.
        self._child_index = None
        self._child_start = None
        self._roots_local = roots - off[:-1]

        # Connectivity / acyclicity, by pointer doubling on the parent
        # links: an acyclic forest converges (every jump pointer reaches
        # its root) within log2 rounds; a cycle never does.  Depth per
        # node falls out of the same pass and seeds the level caches the
        # vectorised kernels use — the canonical BFS topo is derived
        # lazily (:meth:`_topo_column`) only when a per-tree consumer
        # asks for it.
        ids = np.arange(total, dtype=np.int64)
        gpar_all = np.where(p < 0, -1, p + base)
        jump = np.where(gpar_all < 0, ids, gpar_all)
        depth = (gpar_all >= 0).astype(np.int64)
        for _ in range(66):  # > log2(int64 depths); only cycles exhaust it
            nxt = jump[jump]
            if np.array_equal(nxt, jump):
                break
            depth += depth[jump]
            jump = nxt
        else:
            k = int(tree_of[int(np.argmax(jump[jump] != jump))])
            raise TreeError(
                f"tree {k}: graph is not connected / contains a cycle"
            )
        # Power-of-two cycles converge to identity; every honest chain
        # converges onto its root — anything else is a cycle.
        stray = np.flatnonzero(gpar_all[jump] >= 0)
        if len(stray):
            k = int(tree_of[int(stray[0])])
            raise TreeError(
                f"tree {k}: graph is not connected / contains a cycle"
            )
        self._depth_cache = depth
        self._globals_cache = (gcs, child_index, gpar_all, base, tree_of)

        # wbar = max(w, sum of children weights) — the CSR grouping above
        # makes this an exact int64 segmented sum.
        inputs = np.zeros(total, dtype=np.int64)
        internal = np.flatnonzero(counts)
        if len(internal):
            inputs[internal] = np.add.reduceat(
                w[child_index], gcs[internal]
            )
        self._wbar = np.maximum(w, inputs)

    # ------------------------------------------------------------------
    # alternative constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_trees(cls, trees: Sequence) -> "ArrayForest":
        """Concatenate already-validated ``TaskTree``/``ArrayTree`` members.

        Reuses every tree's derived buffers directly (no re-derivation,
        no re-validation) — O(total nodes) of memcpy.
        """
        ats = [as_array_tree(t) for t in trees]
        self = cls.__new__(cls)
        n_trees = len(ats)
        self._n_trees = n_trees
        self._lists = None
        self._globals_cache = None
        self._depth_cache = None
        self._levels_cache = None
        self._subtree_sizes_cache = None
        self._liu_cache = None
        self._topo_cache = None
        if sum(float(at.total_weight()) for at in ats) > _MAX_TOTAL_WEIGHT:
            raise TreeError(
                f"forest-wide total weight exceeds the int64 budget "
                f"({_MAX_TOTAL_WEIGHT}); solve these trees one at a time"
            )
        sizes = np.array([at.n for at in ats], dtype=np.int64)
        off = np.zeros(n_trees + 1, dtype=np.int64)
        np.cumsum(sizes, out=off[1:])
        self._offsets = off
        self._total = int(off[-1]) if n_trees else 0

        def _concat(buffers) -> np.ndarray:
            if not buffers:
                return np.zeros(0, dtype=np.int64)
            return np.concatenate(
                [np.frombuffer(b, dtype=np.int64) for b in buffers]
            )

        self._parents = _concat([at._parents for at in ats])
        self._weights = _concat([at._weights for at in ats])
        self._wbar = _concat([at._wbar for at in ats])
        self._topo_cache = _concat([at._topo for at in ats])
        self._roots_local = np.array(
            [at._root for at in ats], dtype=np.int64
        )
        self._child_start = _concat([at._child_start for at in ats])
        self._child_index = _concat([at._child_index for at in ats])
        self._totals = np.array(
            [at.total_weight() for at in ats], dtype=np.int64
        )
        return self

    @classmethod
    def from_pairs(cls, pairs: Sequence) -> "ArrayForest":
        """Build from per-tree ``(parents, weights)`` pairs (one validation).

        Columns are converted per tree and concatenated once — no
        million-element Python list is ever materialised.
        """
        pairs = list(pairs)
        if not pairs:
            return cls([0], [], [])
        offsets = np.zeros(len(pairs) + 1, dtype=np.int64)
        pcols = []
        wcols = []
        for i, (p, w) in enumerate(pairs):
            if len(p) != len(w):
                raise TreeError(
                    f"parents and weights disagree on size: "
                    f"{len(p)} != {len(w)}"
                )
            offsets[i + 1] = offsets[i] + len(p)
            pcols.append(np.asarray(p))
            wcols.append(np.asarray(w))
            if wcols[-1].dtype == np.bool_:
                # concatenation would silently promote bools; reject with
                # the shared validator's vocabulary instead.
                raise TreeError(
                    f"weight of node {int(offsets[i])} is not an integer: "
                    f"{bool(wcols[-1].flat[0]) if wcols[-1].size else False!r}"
                )
        return cls(offsets, np.concatenate(pcols), np.concatenate(wcols))

    # ------------------------------------------------------------------
    # the wire form (shared-memory transport, buffer-digest cache keys)
    # ------------------------------------------------------------------
    def pack(self) -> bytes:
        """Canonical raw form: ``[n_trees, total] + offsets + parents + weights``.

        All native-endian int64; :meth:`from_packed` is the exact inverse
        on the same machine (the shared-memory transport never crosses
        hosts).  For host-portable digests use :meth:`column_buffers`
        with :func:`repro.datasets.store.cache_key_buffers`, which
        canonicalises to little-endian.
        """
        head = np.array([self._n_trees, self._total], dtype=np.int64)
        return b"".join(
            np.ascontiguousarray(col).tobytes()
            for col in (head, self._offsets, self._parents, self._weights)
        )

    @classmethod
    def from_packed(cls, buffer) -> "ArrayForest":
        """Rebuild (and re-validate) a forest from :meth:`pack` output.

        ``buffer`` may be ``bytes`` or any buffer-protocol object; the
        columns are read zero-copy, so keep the buffer alive for the
        forest's lifetime (or pass ``bytes`` for an owning copy).
        """
        words = np.frombuffer(buffer, dtype=np.int64)
        if len(words) < 2:
            raise TreeError("packed forest too short for its header")
        n_trees = int(words[0])
        total = int(words[1])
        expected = 2 + (n_trees + 1) + 2 * total
        if n_trees < 0 or total < 0 or len(words) != expected:
            raise TreeError(
                f"packed forest of {len(words)} words does not match its "
                f"header (n_trees={n_trees}, total={total})"
            )
        offsets = words[2 : 2 + n_trees + 1]
        parents = words[2 + n_trees + 1 : 2 + n_trees + 1 + total]
        weights = words[2 + n_trees + 1 + total :]
        return cls(offsets, parents, weights)

    def column_buffers(self) -> dict[str, np.ndarray]:
        """The identity columns, named for buffer-digest cache keys."""
        return {
            "offsets": self._offsets,
            "parents": self._parents,
            "weights": self._weights,
        }

    # ------------------------------------------------------------------
    # member access
    # ------------------------------------------------------------------
    @property
    def n_trees(self) -> int:
        return self._n_trees

    @property
    def total_nodes(self) -> int:
        return self._total

    @property
    def offsets(self) -> np.ndarray:
        return self._offsets

    def sizes(self) -> np.ndarray:
        """Node count of every tree."""
        return np.diff(self._offsets)

    def tree(self, k: int) -> ArrayTree:
        """Materialise member ``k`` as a standalone :class:`ArrayTree`.

        Copies the (already canonical) buffer slices — no re-validation,
        no re-derivation; the result is indistinguishable from
        ``ArrayTree(parents_k, weights_k)``.
        """
        if not 0 <= k < self._n_trees:
            raise IndexError(f"tree {k} out of range [0, {self._n_trees})")
        off = self._offsets
        a = int(off[k])
        b = int(off[k + 1])
        n = b - a
        at = ArrayTree.__new__(ArrayTree)
        at._n = n
        at._root = int(self._roots_local[k])
        at._parents = _from_numpy(self._parents[a:b])
        at._weights = _from_numpy(self._weights[a:b])
        at._wbar = _from_numpy(self._wbar[a:b])
        at._topo = _from_numpy(self._topo_column()[a:b])
        at._child_start = _from_numpy(self._child_start_col()[a + k : b + k + 1])
        at._child_index = _from_numpy(self._child_index_col()[a - k : b - (k + 1)])
        at._children_view = _CSRChildren(at._child_start, at._child_index, n)
        at._total_weight = int(self._totals[k])
        return at

    def trees(self) -> Iterator[ArrayTree]:
        """Iterate the members as standalone :class:`ArrayTree` objects."""
        for k in range(self._n_trees):
            yield self.tree(k)

    def task_tree(self, k: int) -> TaskTree:
        """Member ``k`` as a :class:`TaskTree` (re-validates, object engine)."""
        off = self._offsets
        a, b = int(off[k]), int(off[k + 1])
        return TaskTree(
            self._parents[a:b].tolist(), self._weights[a:b].tolist()
        )

    def subset(self, keep: Sequence[int]) -> "ArrayForest":
        """Members ``keep`` (ascending indices) as a new forest.

        Built once from this forest's columns — no per-member
        materialisation.  A memoised Liu sweep carries over: its peaks
        and schedules are per tree, so the kept trees' rows and node
        blocks are exactly what a fresh sweep of the subset would emit.
        """
        rows = np.asarray(keep, dtype=np.int64)
        chosen = np.zeros(self._n_trees, dtype=bool)
        chosen[rows] = True
        nodes = chosen[self._globals()[4]]
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(self.sizes()[rows], out=offsets[1:])
        sub = ArrayForest(offsets, self._parents[nodes], self._weights[nodes])
        if self._liu_cache is not None:
            peaks, schedule = self._liu_cache
            carried = (
                peaks[rows],
                None if schedule is None else schedule[nodes],
            )
            for col in carried:
                if col is not None:
                    col.flags.writeable = False  # shared, like the original
            sub._liu_cache = carried
        return sub

    def _child_start_col(self) -> np.ndarray:
        """The concatenated tree-local ``child_start`` slots, lazily.

        Tree ``k`` occupies ``[offsets[k] + k : offsets[k+1] + k + 1]``
        with values rebased to start at 0 (``edges before tree k`` is
        ``offsets[k] - k``, each earlier tree having ``n_j - 1`` edges).
        """
        cached = self._child_start
        if cached is None:
            gcs, _gci, _gpar, _base, _tree_of = self._globals()
            off = self._offsets
            n_trees = self._n_trees
            sizes = np.diff(off)
            slot_tree = np.repeat(
                np.arange(n_trees, dtype=np.int64), sizes + 1
            )
            sel = np.arange(self._total + n_trees, dtype=np.int64) - slot_tree
            cached = gcs[sel] - (off[slot_tree] - slot_tree)
            self._child_start = cached
        return cached

    def _child_index_col(self) -> np.ndarray:
        """The concatenated tree-local child ids, lazily.

        Tree ``k`` occupies ``[offsets[k] - k : offsets[k+1] - (k+1)]``.
        """
        cached = self._child_index
        if cached is None:
            _gcs, gci, _gpar, base, _tree_of = self._globals()
            cached = gci - base[gci]
            self._child_index = cached
        return cached

    def _globals(self):
        """Global-id views of the CSR structure, for the vectorised kernels.

        Returns ``(gcs, gci, gpar, base, tree_of)``: the child CSR with
        forest-wide node ids (``gcs`` of length ``total + 1``), global
        parent ids (roots stay ``-1``), each node's tree base offset and
        owning tree.  Construction caches these eagerly; the
        ``from_trees`` path (which concatenates local columns instead)
        derives them here on first use.
        """
        cached = self._globals_cache
        if cached is not None:
            return cached
        off = self._offsets
        n_trees = self._n_trees
        total = self._total
        sizes = np.diff(off)
        tree_of = np.repeat(np.arange(n_trees, dtype=np.int64), sizes)
        base = off[tree_of]
        gpar = np.where(self._parents < 0, -1, self._parents + base)
        edge_tree = np.repeat(np.arange(n_trees, dtype=np.int64), sizes - 1)
        gci = self._child_index + off[edge_tree]
        # Rebase the concatenated local child_start (n_k + 1 slots per
        # tree) into one global array: drop every tree's final slot and
        # add its edges-before count, then close with the edge total.
        slot_tree = np.repeat(np.arange(n_trees, dtype=np.int64), sizes + 1)
        keep = np.ones(total + n_trees, dtype=bool)
        keep[off[1:] + np.arange(n_trees)] = False
        gcs = np.empty(total + 1, dtype=np.int64)
        gcs[:total] = (self._child_start + (off[slot_tree] - slot_tree))[keep]
        gcs[total] = total - n_trees
        cached = (gcs, gci, gpar, base, tree_of)
        self._globals_cache = cached
        return cached

    def _depths(self) -> np.ndarray:
        """Depth of every node (root = 0), by vectorised pointer doubling.

        ``O(total · log(max_depth))`` numpy work and robust to
        degenerate chains (log₂ rounds, not one round per level).
        Cached; used by the vectorised kernels to slice depth levels.
        """
        cached = self._depth_cache
        if cached is not None:
            return cached
        _gcs, _gci, gpar, _base, _tree_of = self._globals()
        ids = np.arange(self._total, dtype=np.int64)
        jump = np.where(gpar < 0, ids, gpar)
        depth = (gpar >= 0).astype(np.int64)
        while True:
            nxt = jump[jump]
            if np.array_equal(nxt, jump):
                break
            depth += depth[jump]
            jump = nxt
        self._depth_cache = depth
        return depth

    def max_depth(self) -> int:
        """Deepest root-to-leaf edge count over the whole forest."""
        return int(self._depths().max()) if self._total else 0

    def _topo_column(self) -> np.ndarray:
        """The concatenated canonical BFS topo orders (local ids), lazily.

        Identical to what each member's ``ArrayTree`` stores.  The BFS
        runs level-synchronously over the whole forest — one ragged
        numpy gather per depth level — and the per-level order
        restricted to any one tree is exactly that tree's FIFO BFS
        order, so a stable sort by owning tree recovers every member's
        canonical block.  Forests deeper than the vectorised round
        budget (degenerate chains) finish on a C-level list BFS, which
        is also exact.  Only per-tree consumers (:meth:`tree`, the loop
        kernels, FiF) force this; the vectorised sweeps never do.
        """
        cached = self._topo_cache
        if cached is not None:
            return cached
        gcs, gci, _gpar, base, tree_of = self._globals()
        total = self._total
        roots = self._roots_local + self._offsets[:-1]
        order_parts = [roots]
        frontier = roots
        arange_cache = np.arange(total, dtype=np.int64)
        for _ in range(_BFS_VECTOR_LEVELS):
            s = gcs[frontier]
            cnt = gcs[frontier + 1] - s
            tot = int(cnt.sum())
            if tot == 0:
                frontier = frontier[:0]
                break
            starts = np.cumsum(cnt) - cnt
            grp = np.repeat(np.arange(len(frontier), dtype=np.int64), cnt)
            frontier = gci[s[grp] + (arange_cache[:tot] - starts[grp])]
            order_parts.append(frontier)
        if frontier.size:
            gcs_l = gcs.tolist()
            gci_l = gci.tolist()
            q = frontier.tolist()
            for v in q:
                s = gcs_l[v]
                e = gcs_l[v + 1]
                if s != e:
                    q.extend(gci_l[s:e])
            order_parts[-1] = np.asarray(q, dtype=np.int64)
        order = np.concatenate(order_parts)
        topo_global = order[np.argsort(tree_of[order], kind="stable")]
        self._topo_cache = topo_global - base[topo_global]
        return self._topo_cache

    def _levels(self, upto: int | None = None):
        """Depth-level decomposition of the internal nodes' child edges.

        One list entry per depth level ``d`` (ascending), each a tuple
        ``(idx, eidx, starts, grp, counts, max_arity, multi)``: the
        internal nodes at depth ``d`` (ascending ids), the CSR edge
        positions of their children concatenated in (parent, CSR) order,
        group boundaries, the edge→group map, group sizes, the widest
        group and the edges of multi-child groups.  The entries are
        slices of whole-forest columns (:meth:`_level_columns`), cut on
        demand — every level by default, only ``0..upto`` when asked
        (the depth-capped Liu sweep never touches deeper levels, so a
        chain-deep member costs it no per-level work).  Both are cached;
        the list returned may hold more than ``upto + 1`` entries.
        """
        cached = self._levels_cache
        if cached is None:
            cached = self._levels_cache = ([], *self._level_columns())
        levels, max_depth, cols = cached
        stop = max_depth if upto is None else min(upto, max_depth)
        push = levels.append
        for d in range(len(levels), stop + 1):
            if d == max_depth:  # the deepest level has no child edges
                push(None)
                continue
            edge_order, lb, gb, gstart, gparent, gcount, grp, maxar = cols
            lo = lb[d]
            g0 = gb[d]
            g1 = gb[d + 1]
            counts = gcount[g0:g1]
            grp_d = grp[lo : lb[d + 1]] - g0
            max_arity = maxar[d]
            # edges belonging to multi-child groups: the only ones a
            # child-ordering sort can move (singletons are sorted already)
            multi = (
                np.flatnonzero(counts[grp_d] > 1) if max_arity > 2 else None
            )
            push(
                (
                    gparent[g0:g1],
                    edge_order[lo : lb[d + 1]],
                    gstart[g0:g1] - lo,
                    grp_d,
                    counts,
                    max_arity,
                    multi,
                )
            )
        return levels

    def _level_columns(self):
        """``(max_depth, columns)`` the level entries are sliced from.

        The child edges sorted stably by their parent's depth (so each
        level lists its parents' edges in (parent, CSR) order), then the
        per-parent groups over that whole order — starts, parents,
        sizes, the edge→group map — with the level and group bounds of
        every depth and each level's widest group, all in a handful of
        global numpy passes.
        """
        if self._total == 0:
            return -1, None
        gcs, _gci, _gpar, _base, _tree_of = self._globals()
        depth = self._depths()
        total = self._total
        cnt_all = gcs[1:] - gcs[:total]
        e_par = np.repeat(np.arange(total, dtype=np.int64), cnt_all)
        ed = depth[e_par]
        max_depth = int(depth.max())
        # depths this shallow sort as uint16, where numpy's stable sort
        # is a linear-time radix sort (same order, several times faster)
        edge_order = np.argsort(
            ed.astype(np.uint16) if max_depth <= 0xFFFF else ed, kind="stable"
        )
        lvl_bounds = np.searchsorted(
            ed[edge_order], np.arange(max_depth + 2, dtype=np.int64)
        )
        pe = e_par[edge_order]
        n_edges = len(pe)
        head = np.ones(n_edges, dtype=bool)
        np.not_equal(pe[1:], pe[:-1], out=head[1:])
        gstart = np.flatnonzero(head)
        gcount = np.diff(gstart, append=n_edges)
        grp = np.cumsum(head) - 1
        gb = np.searchsorted(gstart, lvl_bounds)  # group bounds per level
        maxar = (
            np.maximum.reduceat(gcount, gb[:max_depth]).tolist()
            if max_depth
            else []
        )
        return max_depth, (
            edge_order,
            lvl_bounds.tolist(),
            gb.tolist(),
            gstart,
            pe[gstart],
            gcount,
            grp,
            maxar,
        )

    def _subtree_sizes(self) -> np.ndarray:
        """Node count of every subtree — ordering-independent, so cached.

        One bottom-up sweep of segmented sums over the level cache; the
        vectorised emission pass and repeated kernel calls reuse it.
        """
        cached = self._subtree_sizes_cache
        if cached is None:
            _gcs, gci, _gpar, _base, _tree_of = self._globals()
            cached = np.ones(self._total, dtype=np.int64)
            for level in reversed(self._levels()):
                if level is None:
                    continue
                idx, eidx, starts, _grp, _counts, max_arity, _multi = level
                if max_arity == 1:
                    cached[idx] = 1 + cached[gci[eidx]]
                else:
                    cached[idx] = 1 + np.add.reduceat(
                        cached[gci[eidx]], starts
                    )
            self._subtree_sizes_cache = cached
        return cached

    def _as_lists(self):
        """One-shot ``tolist`` of every column, cached (forests are immutable).

        The forest kernels run several sweeps (bounds, peaks, one per
        algorithm, FiF) over the same buffers; converting once keeps the
        per-sweep cost at pure list slicing.
        """
        lists = self._lists
        if lists is None:
            lists = (
                self._offsets.tolist(),
                self._parents.tolist(),
                self._weights.tolist(),
                self._wbar.tolist(),
                self._topo_column().tolist(),
                self._child_start_col().tolist(),
                self._child_index_col().tolist(),
            )
            self._lists = lists
        return lists

    # ------------------------------------------------------------------
    # dunder conveniences
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n_trees

    def __repr__(self) -> str:
        return (
            f"ArrayForest(n_trees={self._n_trees}, "
            f"total_nodes={self._total})"
        )
