"""Sparse symmetric matrix generators and fill-reducing orderings.

The paper's TREES dataset consists of elimination trees of matrices from
the University of Florida Sparse Matrix Collection.  That collection is
not available offline, so this module provides the *matrix side* of a
faithful substitute: structurally realistic symmetric patterns

* 2-D and 3-D grid Laplacians (the canonical PDE discretisations behind a
  large share of the collection),
* random symmetric patterns with prescribed average degree,

combined with the orderings that shape real elimination trees:

* natural (lexicographic grid) order,
* reverse Cuthill–McKee (scipy),
* a from-scratch greedy **minimum-degree** ordering (the classic
  fill-reducing heuristic used by direct solvers),
* uniformly random permutations (worst-case-ish fill).

Only the *pattern* matters downstream (the paper's model is symbolic), so
all values are 1.0.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

# scipy loads inside the functions that use it: importing the CLI or
# the server must not pay for it
if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "grid_laplacian_2d",
    "grid_laplacian_3d",
    "random_symmetric_pattern",
    "minimum_degree_ordering",
    "random_ordering",
    "rcm_ordering",
    "natural_ordering",
    "permute_symmetric",
    "ORDERINGS",
]


def _as_symmetric_csr(a: sp.spmatrix) -> sp.csr_matrix:
    """Symmetrise the pattern, force a unit diagonal, drop values."""
    import scipy.sparse as sp

    a = sp.csr_matrix(a)
    pattern = (a + a.T).tocsr()
    pattern.data[:] = 1.0
    pattern = pattern + sp.eye(pattern.shape[0], format="csr")
    pattern.data[:] = 1.0
    pattern.sum_duplicates()
    return pattern


def grid_laplacian_2d(nx: int, ny: int) -> sp.csr_matrix:
    """The 5-point Laplacian pattern on an ``nx × ny`` grid."""
    import scipy.sparse as sp

    dx = sp.diags([np.ones(nx - 1), np.ones(nx - 1)], [-1, 1], shape=(nx, nx))
    dy = sp.diags([np.ones(ny - 1), np.ones(ny - 1)], [-1, 1], shape=(ny, ny))
    adj = sp.kron(sp.eye(ny), dx) + sp.kron(dy, sp.eye(nx))
    return _as_symmetric_csr(adj)


def grid_laplacian_3d(nx: int, ny: int, nz: int) -> sp.csr_matrix:
    """The 7-point Laplacian pattern on an ``nx × ny × nz`` grid."""
    import scipy.sparse as sp

    plane = grid_laplacian_2d(nx, ny)
    dz = sp.diags([np.ones(nz - 1), np.ones(nz - 1)], [-1, 1], shape=(nz, nz))
    adj = sp.kron(sp.eye(nz), plane) + sp.kron(dz, sp.eye(nx * ny))
    return _as_symmetric_csr(adj)


def random_symmetric_pattern(
    n: int, avg_degree: float, rng: np.random.Generator
) -> sp.csr_matrix:
    """A random symmetric pattern with ≈ ``avg_degree`` off-diagonals per row."""
    import scipy.sparse as sp

    if avg_degree <= 0 or avg_degree >= n:
        raise ValueError(f"avg_degree must be in (0, n), got {avg_degree}")
    nnz = int(n * avg_degree / 2)
    rows = rng.integers(0, n, size=nnz)
    cols = rng.integers(0, n, size=nnz)
    keep = rows != cols
    a = sp.coo_matrix(
        (np.ones(keep.sum()), (rows[keep], cols[keep])), shape=(n, n)
    )
    return _as_symmetric_csr(a)


# ----------------------------------------------------------------------
# orderings
# ----------------------------------------------------------------------
def natural_ordering(a: sp.csr_matrix, rng=None) -> np.ndarray:
    """Identity permutation."""
    return np.arange(a.shape[0])


def random_ordering(a: sp.csr_matrix, rng: np.random.Generator) -> np.ndarray:
    """A uniformly random permutation (typically produces heavy fill)."""
    return rng.permutation(a.shape[0])


def rcm_ordering(a: sp.csr_matrix, rng=None) -> np.ndarray:
    """Reverse Cuthill–McKee (bandwidth-reducing) ordering."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    return np.asarray(reverse_cuthill_mckee(sp.csr_matrix(a), symmetric_mode=True))


def minimum_degree_ordering(a: sp.csr_matrix, rng=None) -> np.ndarray:
    """Greedy minimum-degree elimination ordering (no supervariables).

    Classic fill-reducing heuristic: repeatedly eliminate a vertex of
    minimum degree in the quotient elimination graph, turning its
    neighbourhood into a clique.  Quadratic-ish worst case, entirely
    adequate for the instance sizes used here, and a genuine substrate:
    direct solvers' elimination trees are shaped by this family of
    orderings.
    """
    import scipy.sparse as sp

    a = sp.csr_matrix(a)
    n = a.shape[0]
    adj: list[set[int]] = [set() for _ in range(n)]
    indptr, indices = a.indptr, a.indices
    for i in range(n):
        for j in indices[indptr[i] : indptr[i + 1]]:
            if i != j:
                adj[i].add(int(j))

    import heapq

    heap = [(len(adj[v]), v) for v in range(n)]
    heapq.heapify(heap)
    eliminated = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    k = 0
    while heap:
        deg, v = heapq.heappop(heap)
        if eliminated[v] or deg != len(adj[v]):
            continue  # stale entry
        eliminated[v] = True
        order[k] = v
        k += 1
        neighbours = adj[v]
        for u in neighbours:
            adj[u].discard(v)
        # Clique the neighbourhood.
        nb = list(neighbours)
        for idx, u in enumerate(nb):
            new = neighbours.difference(adj[u])
            new.discard(u)
            if new:
                adj[u].update(new)
            heapq.heappush(heap, (len(adj[u]), u))
        adj[v] = set()
    assert k == n
    return order


def permute_symmetric(a: sp.csr_matrix, perm: np.ndarray) -> sp.csr_matrix:
    """Return ``P A Pᵀ`` where row ``i`` of the result is ``perm[i]`` of ``a``."""
    import scipy.sparse as sp

    a = sp.csr_matrix(a)
    n = a.shape[0]
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n)
    coo = a.tocoo()
    return sp.csr_matrix(
        (coo.data, (inv[coo.row], inv[coo.col])), shape=a.shape
    )


#: registry used by the TREES dataset builder
ORDERINGS = {
    "natural": natural_ordering,
    "rcm": rcm_ordering,
    "mindeg": minimum_degree_ordering,
    "random": random_ordering,
}
