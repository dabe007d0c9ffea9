"""Liu's optimal peak-memory tree traversal (``OPTMINMEM``).

Reference: J. W. H. Liu, *An application of generalized tree pebbling to
sparse matrix factorization*, SIAM J. Algebraic Discrete Methods 8(3), 1987
— the algorithm the paper calls ``OPTMINMEM`` (Section 3.3) and uses both
as a baseline MinIO strategy (Section 4.4) and as the engine of the
RecExpand heuristics (Section 5).

Hill–valley segment algebra
---------------------------

The minimum-memory traversal of the subtree rooted at ``v`` is represented
by a canonical sequence of *segments* ``[(h_1, t_1), ..., (h_s, t_s)]``:

* segment ``i`` executes a contiguous group of nodes, reaching peak
  (*hill*) ``h_i`` and ending with ``t_i`` units resident (*valley*);
* canonically, hills strictly decrease and valleys strictly increase
  (any other cut point is dominated and merged away).

To combine the children of ``v``, each child's segments are turned into
**deltas** relative to the child's previous valley —
``(X_i, Y_i) = (h_i - t_{i-1}, t_i - t_{i-1})`` with ``t_0 = 0`` — because
a child's later segments *replace* its earlier residual rather than adding
to it.  Executing the merged deltas on a running base then reproduces the
true memory profile, and Liu's rearrangement lemma (Theorem 3 of the
paper) applies to deltas: the peak of the merged sequence is minimised by
sorting by decreasing ``X - Y = h_i - t_i``, which is strictly decreasing
within each child, so a global merge never violates per-child order.

Finally the execution of ``v`` itself appends a segment with hill
``max(sum of children outputs, w_v) = wbar_v`` and valley ``w_v``, and the
whole sequence is re-canonicalised.

Segments carry the executed nodes as a *rope* (nested pairs, flattened on
demand) so that schedule extraction stays linear even on deep chains.

The algebra itself lives once, in scalar code:
:func:`repro.core.kernels.liu_combine` solves one node from its
children's ``(hill, valley, rope)`` tuples, and
:func:`~repro.core.kernels.liu_fill` drives it bottom-up over CSR lists.
:func:`opt_min_mem` and :func:`min_peak_memory` run those cores on the
tree's cached lists — every whole-tree solve, including the exact
solver's and the Theorem 2 schedule recovery's — and the RecExpand
heuristics drive ``liu_fill`` directly over the lists of an
:class:`~repro.core.expansion.ExpansionTree`.  :class:`LiuSolver` is the
memoised, incremental reference around the same combine step for any
object following the tree protocol: it solves subtrees on demand and
supports invalidating a root-ward path.  Nothing in the package outside
this module calls it; the tests compare the list cores against it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import kernels
from ..core.tree import TaskTree

__all__ = ["Segment", "LiuSolver", "opt_min_mem", "min_peak_memory"]


# A rope is an int (single node) or a pair of ropes; flattening is
# iterative and shared with the flat kernels (one encoding, one
# flattener — see repro.core.kernels.flatten_rope).
Rope = object

_flatten_rope = kernels.flatten_rope


@dataclass(frozen=True)
class Segment:
    """One canonical hill–valley segment of a subtree traversal."""

    hill: int
    valley: int
    nodes: Rope  # the tasks executed by this segment, in order

    def node_list(self) -> list[int]:
        out: list[int] = []
        _flatten_rope(self.nodes, out)
        return out


class LiuSolver:
    """Memoised, incremental bottom-up solver for the MinMem problem.

    Works on any object following the tree protocol (``weights``,
    ``children``, ``parents``, ``root``), including the mutable
    :class:`~repro.core.expansion.ExpansionTree`.  Segments are cached
    per node as ``(hill, valley, rope)`` tuples and combined by
    :func:`repro.core.kernels.liu_combine`; :class:`Segment` objects
    exist only in what :meth:`segments` returns.

    The incremental reference: no module of the package outside this
    one calls it (whole-tree solves run :func:`opt_min_mem` on the list
    core, and a bottom-up pass over a whole tree is
    :func:`repro.core.kernels.liu_fill`); the cross-validation tests and
    benchmarks compare the cores against it, and it serves
    tree-protocol objects without ``core_lists()``.
    """

    def __init__(self, tree):
        self.tree = tree
        self._segs: dict[int, list[tuple[int, int, Rope]]] = {}

    # ------------------------------------------------------------------
    def _solve(self, v: int | None) -> list[tuple[int, int, Rope]]:
        """Segment tuples of ``v`` (default: root), solving what is missing."""
        if v is None:
            v = self.tree.root
        segs = self._segs
        cached = segs.get(v)
        if cached is not None:
            return cached
        children = self.tree.children
        weights = self.tree.weights
        combine = kernels.liu_combine
        stack = [v]
        while stack:
            u = stack[-1]
            if u in segs:
                stack.pop()
                continue
            kids = children[u]
            missing = [c for c in kids if c not in segs]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            if len(kids) == 1:
                # the combine step extends a lone child's list in place;
                # the child's cached entry must survive invalidations
                segs[u] = combine(u, weights[u], [segs[kids[0]][:]])
            else:
                segs[u] = combine(u, weights[u], [segs[c] for c in kids])
        return segs[v]

    def segments(self, v: int | None = None) -> list[Segment]:
        """Canonical segments of the subtree rooted at ``v`` (default: root)."""
        return [Segment(hill, valley, nodes) for hill, valley, nodes in self._solve(v)]

    def peak(self, v: int | None = None) -> int:
        """Minimum peak memory to execute the subtree rooted at ``v``."""
        return self._solve(v)[0][0]

    def schedule(self, v: int | None = None) -> list[int]:
        """An optimal-peak execution order of the subtree rooted at ``v``."""
        out: list[int] = []
        for _hill, _valley, nodes in self._solve(v):
            _flatten_rope(nodes, out)
        return out

    def invalidate_from(self, v: int) -> None:
        """Drop cached segments of ``v`` and all its ancestors.

        Call after mutating the weight or children of ``v`` (the subtrees
        hanging below ``v`` are unaffected and stay cached).
        """
        parents = self.tree.parents
        segs = self._segs
        u = v
        while u != -1:
            segs.pop(u, None)
            u = parents[u]


def opt_min_mem(tree: TaskTree) -> tuple[list[int], int]:
    """``OPTMINMEM``: an optimal-peak schedule and its peak memory.

    Runs the list core on any tree with ``core_lists()``; it reproduces
    :class:`LiuSolver`'s schedule exactly.  Tree-protocol objects without
    ``core_lists()``, such as :class:`~repro.core.expansion.ExpansionTree`,
    remain a supported input and take :class:`LiuSolver`.
    """
    if hasattr(tree, "core_lists"):
        return kernels.liu_schedule(tree)
    solver = LiuSolver(tree)
    return solver.schedule(), solver.peak()


def min_peak_memory(tree: TaskTree) -> int:
    """The in-core peak memory lower bound ``Peak_incore`` of a tree.

    Dispatches on the input's type like :func:`opt_min_mem`.
    """
    if hasattr(tree, "core_lists"):
        return kernels.liu_peak(tree)
    return LiuSolver(tree).peak()
