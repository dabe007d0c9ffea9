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
demand by :func:`repro.core.kernels.flatten_rope`) so that schedule
extraction stays linear even on deep chains.

The algebra lives once in scalar code (and once vectorised, in
:mod:`repro.core.forest_kernels`):
:func:`repro.core.kernels.liu_combine` solves one node from its
children's ``(hill, valley, rope)`` tuples, and
:func:`~repro.core.kernels.liu_fill` drives it bottom-up over CSR lists.
:func:`opt_min_mem` runs those cores on the tree's ``core_lists()`` —
every whole-tree solve, including the exact solver's and the Theorem 2
schedule recovery's — and the RecExpand heuristics drive ``liu_fill``
directly over the lists of an
:class:`~repro.core.expansion.ExpansionTree`, re-solving only the path
above each expansion.  :func:`min_peak_memory` runs the rope-free
:func:`~repro.core.kernels.liu_peak_core`, faster on large trees.
``repro.core.kernels.liu_schedule`` and ``liu_peak`` are aliases of
these two until 3.0.
"""

from __future__ import annotations

from ..core import kernels
from ..core.tree import TaskTree

__all__ = ["opt_min_mem", "min_peak_memory"]


def opt_min_mem(tree: TaskTree) -> tuple[list[int], int]:
    """``OPTMINMEM``: an optimal-peak schedule and its peak memory.

    Takes any tree with ``core_lists()``: a
    :class:`~repro.core.tree.TaskTree`, an
    :class:`~repro.core.arraytree.ArrayTree` or an
    :class:`~repro.core.expansion.ExpansionTree`.
    """
    segs = kernels.liu_segments(tree)
    schedule: list[int] = []
    for _hill, _valley, nodes in segs:
        kernels.flatten_rope(nodes, schedule)
    return schedule, segs[0][0]


def min_peak_memory(tree: TaskTree) -> int:
    """The in-core peak memory lower bound ``Peak_incore`` of a tree.

    Takes the same trees as :func:`opt_min_mem`.
    """
    lists = tree.core_lists()
    return kernels.liu_peak_core(
        len(lists.weights), lists.weights, lists.start, lists.cindex, lists.topo
    )
