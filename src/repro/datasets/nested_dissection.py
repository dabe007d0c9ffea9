"""Nested dissection ordering (George), the multifrontal workhorse.

Nested dissection is the fill-reducing ordering that real multifrontal
codes (MUMPS via METIS/SCOTCH) use on large problems; its elimination
trees are the balanced, separator-topped trees on which the paper's TREES
dataset is heaviest.  This implementation is graph-based and from
scratch:

1. find a *pseudo-peripheral* vertex by repeated BFS (the standard
   Gibbs–Poole–Stockmeyer sweep);
2. build its BFS level structure and take the median level as a vertex
   separator;
3. order each remaining connected component recursively, then the
   separator vertices last (they become the subtree roots / fronts).

Small components fall back to the greedy minimum-degree ordering, like
the incomplete-nested-dissection variants used in practice.

The resulting permutation slots into :data:`repro.datasets.matrices.ORDERINGS`
(key ``"nd"``), so every downstream pipeline — elimination tree, symbolic
factorisation, multifrontal weights — works unchanged.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from .matrices import ORDERINGS, minimum_degree_ordering

# scipy loads inside the functions that use it: importing the CLI or
# the server must not pay for it
if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["nested_dissection_ordering", "bfs_levels", "pseudo_peripheral_vertex"]


def _adjacency(a: sp.csr_matrix) -> list[np.ndarray]:
    import scipy.sparse as sp

    a = sp.csr_matrix(a)
    out = []
    for i in range(a.shape[0]):
        row = a.indices[a.indptr[i] : a.indptr[i + 1]]
        out.append(row[row != i])
    return out


def bfs_levels(
    adj: list[np.ndarray], start: int, alive: np.ndarray
) -> list[list[int]]:
    """BFS level structure from ``start`` over the vertices where ``alive``."""
    levels: list[list[int]] = [[start]]
    seen = {start}
    frontier = [start]
    while frontier:
        nxt: list[int] = []
        for v in frontier:
            for u in adj[v]:
                u = int(u)
                if alive[u] and u not in seen:
                    seen.add(u)
                    nxt.append(u)
        if not nxt:
            break
        levels.append(nxt)
        frontier = nxt
    return levels


def pseudo_peripheral_vertex(
    adj: list[np.ndarray], start: int, alive: np.ndarray, *, sweeps: int = 4
) -> int:
    """A vertex of near-maximal eccentricity (repeated-BFS heuristic)."""
    v = start
    depth = -1
    for _ in range(sweeps):
        levels = bfs_levels(adj, v, alive)
        if len(levels) - 1 <= depth:
            break
        depth = len(levels) - 1
        last = levels[-1]
        # Tie-break toward low degree, the classic GPS refinement.
        v = min(last, key=lambda u: len(adj[u]))
    return v


def _components(adj: list[np.ndarray], vertices: list[int], alive: np.ndarray) -> list[list[int]]:
    comp: list[list[int]] = []
    unvisited = set(vertices)
    while unvisited:
        root = unvisited.pop()
        queue = deque([root])
        this = [root]
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                u = int(u)
                if alive[u] and u in unvisited:
                    unvisited.discard(u)
                    this.append(u)
                    queue.append(u)
        comp.append(this)
    return comp


def nested_dissection_ordering(
    a: sp.csr_matrix,
    rng: np.random.Generator | None = None,
    *,
    leaf_size: int = 8,
) -> np.ndarray:
    """Nested dissection elimination order of a symmetric pattern.

    Parameters
    ----------
    a:
        symmetric sparse pattern (only the structure is used).
    rng:
        unused; accepted for :data:`ORDERINGS` interface compatibility.
    leaf_size:
        components at or below this size are ordered by minimum degree
        instead of being dissected further.

    Returns
    -------
    numpy.ndarray
        permutation ``order`` with ``order[k]`` = the vertex eliminated
        at step ``k`` (separators come after their components).
    """
    import scipy.sparse as sp

    a = sp.csr_matrix(a)
    n = a.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    adj = _adjacency(a)
    alive = np.ones(n, dtype=bool)
    order: list[int] = []

    def order_leaf(vertices: list[int]) -> None:
        if len(vertices) == 1:
            order.append(vertices[0])
            return
        sub = sp.csr_matrix(a[vertices][:, vertices])
        local = minimum_degree_ordering(sub)
        order.extend(vertices[i] for i in local)

    # Explicit work stack instead of recursion: path-like graphs produce
    # dissection trees hundreds of levels deep, which must not lean on
    # the interpreter's recursion limit.  LIFO processing with reversed
    # pushes reproduces the recursive emission order exactly
    # (components in increasing size, separators after their parts).
    work: list[tuple[str, list[int]]] = [
        ("dissect", component)
        for component in reversed(
            sorted(_components(adj, list(range(n)), alive), key=len)
        )
    ]
    while work:
        action, vertices = work.pop()
        if action == "emit":
            order_leaf(vertices)
            continue
        if len(vertices) <= leaf_size:
            order_leaf(sorted(vertices))
            continue
        start = pseudo_peripheral_vertex(adj, vertices[0], alive)
        levels = bfs_levels(adj, start, alive)
        if len(levels) < 3:
            # No usable separator (near-clique component): stop dissecting.
            order_leaf(sorted(vertices))
            continue
        total = sum(len(lv) for lv in levels)
        cum = 0
        sep_idx = len(levels) // 2
        for i, lv in enumerate(levels):
            cum += len(lv)
            if cum * 2 >= total:
                sep_idx = min(max(i, 1), len(levels) - 2)
                break
        separator = levels[sep_idx]
        for v in separator:
            alive[v] = False
        rest = [v for v in vertices if alive[v]]
        work.append(("emit", sorted(separator)))
        for part in reversed(sorted(_components(adj, rest, alive), key=len)):
            work.append(("dissect", part))

    assert len(order) == n
    return np.asarray(order, dtype=np.int64)


# Make nested dissection available to every dataset/experiment pipeline.
ORDERINGS.setdefault("nd", nested_dissection_ordering)
