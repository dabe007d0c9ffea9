"""Elimination trees and multifrontal task weights (the TREES substrate).

Sparse direct (multifrontal) factorisation organises its computation along
the **elimination tree** of the matrix: column ``j`` of the Cholesky factor
is a tree node whose parent is the row of its first sub-diagonal nonzero.
Each node assembles a dense *frontal matrix*, eliminates its pivot and
passes a dense **contribution block** to its parent — exactly the paper's
model where a task's output data is consumed by its parent.

This module implements the symbolic-analysis pipeline from scratch:

* :func:`elimination_tree` — Liu's near-linear algorithm (path-compressed
  ancestor forest), the same as CSparse's ``cs_etree``;
* :func:`factor_column_counts` — ``|L(:, j)|`` via row-subtree traversal;
* :func:`multifrontal_weights` — contribution-block sizes
  ``(cc_j - 1)²`` (clamped to ≥ 1 so every task produces data);
* :func:`fundamental_supernodes` / :func:`supernodal_task_tree` — chain
  amalgamation used by real solvers, which shortens the tree and grows the
  fronts (MUMPS-style node shapes).

Everything consumes only the symmetric *pattern*; numerical values never
matter (the paper assumes no pivoting).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..core.tree import TaskTree

# scipy loads inside the functions that use it: importing the CLI or
# the server must not pay for it
if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "elimination_tree",
    "factor_column_counts",
    "multifrontal_weights",
    "etree_task_tree",
    "fundamental_supernodes",
    "supernodal_task_tree",
]


def _lower_pattern(a: sp.spmatrix) -> sp.csr_matrix:
    """Row-wise pattern of the strict lower triangle of ``A + Aᵀ``."""
    import scipy.sparse as sp

    a = sp.csr_matrix(a)
    sym = (a + a.T).tocsr()
    return sp.tril(sym, k=-1, format="csr")


def elimination_tree(a: sp.spmatrix) -> np.ndarray:
    """Liu's elimination-tree algorithm; ``parent[j] = -1`` for roots.

    ``parent[j]`` is the smallest ``i > j`` with ``L[i, j] != 0`` in the
    Cholesky factor of (the pattern of) ``A``.  Runs in
    ``O(nnz * alpha(n))`` thanks to path compression over a virtual
    ancestor forest.
    """
    low = _lower_pattern(a)
    n = low.shape[0]
    parent = np.full(n, -1, dtype=np.int64)
    ancestor = np.full(n, -1, dtype=np.int64)
    indptr, indices = low.indptr, low.indices

    for k in range(n):
        # Row k of the lower pattern lists the columns j < k with A[k,j]≠0.
        for j in indices[indptr[k] : indptr[k + 1]]:
            # Walk j's ancestor chain up to (but excluding) k, compressing.
            i = int(j)
            while i != -1 and i < k:
                nxt = int(ancestor[i])
                ancestor[i] = k
                if nxt == -1:
                    parent[i] = k
                i = nxt
    return parent


def factor_column_counts(a: sp.spmatrix, parent: np.ndarray) -> np.ndarray:
    """Nonzero counts of each factor column ``L(:, j)`` (diagonal included).

    Row-subtree method: the nonzeros of row ``i`` of ``L`` are the nodes on
    the etree paths from each ``j`` (with ``A[i, j] != 0``, ``j < i``) up
    to ``i``; each visited node gains one nonzero in its column.
    ``O(|L|)`` time using per-row markers.
    """
    low = _lower_pattern(a)
    n = low.shape[0]
    counts = np.ones(n, dtype=np.int64)  # the diagonal entries
    mark = np.full(n, -1, dtype=np.int64)
    indptr, indices = low.indptr, low.indices

    for i in range(n):
        mark[i] = i
        for j in indices[indptr[i] : indptr[i + 1]]:
            k = int(j)
            while mark[k] != i:
                counts[k] += 1
                mark[k] = i
                k = int(parent[k])
                if k == -1:  # defensive: cannot happen, paths end at i
                    break
    return counts


def multifrontal_weights(column_counts: np.ndarray) -> np.ndarray:
    """Contribution-block sizes: the data a front passes to its parent.

    A front for column ``j`` has order ``cc_j``; after eliminating the
    pivot, the dense Schur complement of order ``cc_j - 1`` is stored until
    the parent assembles it.  Roots still produce their factor column, so
    sizes are clamped to at least 1.
    """
    cb = (np.asarray(column_counts, dtype=np.int64) - 1) ** 2
    return np.maximum(cb, 1)


def etree_task_tree(a: sp.spmatrix) -> TaskTree:
    """Matrix pattern → multifrontal task tree (one node per column).

    If the elimination tree is a forest (reducible matrix), a unit-weight
    virtual root joins the components, preserving every traversal's cost
    structure.
    """
    parent = elimination_tree(a)
    counts = factor_column_counts(a, parent)
    weights = multifrontal_weights(counts)
    return _to_task_tree(parent, weights)


def _to_task_tree(parent: np.ndarray, weights: np.ndarray) -> TaskTree:
    n = len(parent)
    roots = np.flatnonzero(parent == -1)
    if len(roots) == 1:
        return TaskTree(parent.tolist(), weights.tolist())
    parents = parent.tolist() + [-1]
    for r in roots:
        parents[int(r)] = n
    return TaskTree(parents, weights.tolist() + [1])


def fundamental_supernodes(parent: np.ndarray, column_counts: np.ndarray) -> np.ndarray:
    """Map column → supernode id for fundamental supernodes.

    Column ``j+1`` joins ``j``'s supernode iff it is ``j``'s parent, its
    column pattern is ``j``'s minus the pivot (``cc[j+1] == cc[j] - 1``)
    and ``j`` is its only child — the usual chain-amalgamation rule.
    """
    n = len(parent)
    child_count = np.zeros(n, dtype=np.int64)
    for j in range(n):
        if parent[j] != -1:
            child_count[parent[j]] += 1

    snode = np.empty(n, dtype=np.int64)
    current = -1
    for j in range(n):
        starts_new = True
        if j > 0 and parent[j - 1] == j:
            if column_counts[j] == column_counts[j - 1] - 1 and child_count[j] == 1:
                starts_new = False
        if starts_new:
            current += 1
        snode[j] = current
    return snode


def supernodal_task_tree(a: sp.spmatrix) -> TaskTree:
    """Like :func:`etree_task_tree` but with fundamental supernodes merged.

    The supernode's output is the contribution block of its *top* column
    (that is what survives once the whole pivot block is eliminated).
    """
    parent = elimination_tree(a)
    counts = factor_column_counts(a, parent)
    snode = fundamental_supernodes(parent, counts)
    num = int(snode[-1]) + 1 if len(snode) else 0

    sn_parent = np.full(num, -1, dtype=np.int64)
    sn_top_count = np.zeros(num, dtype=np.int64)
    for j in range(len(parent)):
        s = snode[j]
        sn_top_count[s] = counts[j]  # last assignment = top column of s
        p = parent[j]
        if p != -1 and snode[p] != s:
            sn_parent[s] = snode[p]
    weights = multifrontal_weights(sn_top_count)
    return _to_task_tree(sn_parent, weights)
