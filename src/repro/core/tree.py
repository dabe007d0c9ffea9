"""Task-tree data structure for out-of-core tree scheduling.

The model follows Section 3.1 of Marchal, McCauley, Simon & Vivien,
*Minimizing I/Os in Out-of-Core Task Tree Scheduling* (RR-9025, 2017):

* a workload is a rooted **in-tree**: every task ``i`` produces a single
  output of integer size ``w_i`` which is consumed by its unique parent;
* executing task ``i`` requires
  ``wbar_i = max(w_i, sum of the children outputs)`` units of main memory,
  on top of every other *active* output resident in memory.

Nodes are dense integer identifiers ``0 .. n-1``.  The structure is
immutable once built; all derived quantities (children lists, ``wbar``,
subtree sizes, a canonical topological order) are computed once and cached.
Every algorithm in :mod:`repro.algorithms` is written against the small
"tree protocol" exposed here (``n``, ``root``, ``parent``, ``weights``,
``children``) so that the mutable expansion trees used by the RecExpand
heuristic (:mod:`repro.core.expansion`) can be substituted transparently.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

__all__ = [
    "CoreLists",
    "TaskTree",
    "TreeError",
    "chain_tree",
    "star_tree",
    "balanced_binary_tree",
]


class TreeError(ValueError):
    """Raised when a parent/weight description does not define a valid tree."""


class CoreLists(NamedTuple):
    """A tree's columns in the CSR layout the :mod:`repro.core.kernels` cores read.

    ``start[v] : start[v + 1]`` delimits node *v*'s children inside
    ``cindex`` (construction order); ``topo`` is the canonical root-first
    order.  A :class:`TaskTree` caches one instance and hands it to every
    caller, so its columns are tuples: a core that reorders children in
    place works on a list copy of ``cindex``.
    """

    weights: Sequence[int]
    parents: Sequence[int]
    start: Sequence[int]
    cindex: Sequence[int]
    topo: Sequence[int]
    wbar: Sequence[int]


class TaskTree:
    """An immutable rooted in-tree of tasks with integer output sizes.

    Parameters
    ----------
    parents:
        ``parents[i]`` is the node consuming the output of node ``i``;
        the root (exactly one node) uses ``-1``.
    weights:
        ``weights[i]`` is the size :math:`w_i` of node *i*'s output data.
        Sizes must be non-negative integers (the paper assumes an integer
        memory unit, e.g. pages); zero is allowed because node expansion
        (Theorem 2) can produce zero-size residual nodes.

    Raises
    ------
    TreeError
        if the description is not a single rooted tree or a weight is
        negative / non-integral.
    """

    __slots__ = (
        "_parents",
        "_weights",
        "_children",
        "_root",
        "_wbar",
        "_topo",
        "_subtree_size",
        "_core_lists",
    )

    def __init__(self, parents: Sequence[int], weights: Sequence[int]):
        n = len(parents)
        if len(weights) != n:
            raise TreeError(
                f"parents and weights disagree on size: {n} != {len(weights)}"
            )
        if n == 0:
            raise TreeError("a task tree needs at least one node")

        parents = [int(p) for p in parents]
        if all(type(w) is int for w in weights):
            # the common case (plain ints, e.g. a parsed request): only
            # the sign is left to check
            checked_weights = list(weights)
            if min(checked_weights) < 0:
                i = next(i for i, w in enumerate(checked_weights) if w < 0)
                raise TreeError(f"weight of node {i} is negative: {checked_weights[i]}")
        else:
            checked_weights = []
            for i, w in enumerate(weights):
                if isinstance(w, bool) or int(w) != w:
                    raise TreeError(f"weight of node {i} is not an integer: {w!r}")
                w = int(w)
                if w < 0:
                    raise TreeError(f"weight of node {i} is negative: {w}")
                checked_weights.append(w)

        children: list[list[int]] = [[] for _ in range(n)]
        root = -1
        for i, p in enumerate(parents):
            if p == -1:
                if root != -1:
                    raise TreeError(f"two roots: {root} and {i}")
                root = i
            elif 0 <= p < n:
                children[p].append(i)
            else:
                raise TreeError(f"node {i} has out-of-range parent {p}")
        if root == -1:
            raise TreeError("no root (node with parent -1) found")

        self._parents = tuple(parents)
        self._weights = tuple(checked_weights)
        self._children = tuple(tuple(c) for c in children)
        self._root = root

        # A canonical topological order (root first), which doubles as the
        # reachability check: every node must be visited exactly once.
        topo: list[int] = [root]
        for v in topo:
            topo.extend(self._children[v])
        if len(topo) != n:
            raise TreeError("graph is not connected / contains a cycle")
        self._topo = tuple(topo)

        weights_t = self._weights
        kids_of = self._children
        wbar = list(weights_t)  # a leaf's footprint is its own output
        size = [1] * n
        for v in reversed(topo):  # children before parents
            kids = kids_of[v]
            if kids:
                inputs = 0
                sz = 1
                for c in kids:
                    inputs += weights_t[c]
                    sz += size[c]
                size[v] = sz
                if inputs > weights_t[v]:
                    wbar[v] = inputs
        self._wbar = tuple(wbar)
        self._subtree_size = tuple(size)
        self._core_lists: CoreLists | None = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        weights: Sequence[int],
    ) -> "TaskTree":
        """Build from dependency edges ``(child, parent)`` (data flows child → parent)."""
        parents = [-1] * n
        for child, parent in edges:
            if parents[child] != -1:
                raise TreeError(f"node {child} has two parents")
            parents[child] = parent
        return cls(parents, weights)

    @classmethod
    def from_dict(cls, data: Mapping[str, Sequence[int]]) -> "TaskTree":
        """Inverse of :meth:`to_dict`."""
        return cls(data["parents"], data["weights"])

    def to_dict(self) -> dict[str, list[int]]:
        """A plain-JSON representation (``parents`` and ``weights`` lists)."""
        return {"parents": list(self._parents), "weights": list(self._weights)}

    def with_weights(self, weights: Sequence[int]) -> "TaskTree":
        """Same shape, new output sizes."""
        return TaskTree(self._parents, weights)

    def relabeled(self, order: Sequence[int]) -> "TaskTree":
        """Return an isomorphic tree whose node ``i`` is old node ``order[i]``."""
        if sorted(order) != list(range(self.n)):
            raise TreeError("relabeling is not a permutation of the nodes")
        new_id = [0] * self.n
        for new, old in enumerate(order):
            new_id[old] = new
        parents = [
            -1 if self._parents[old] == -1 else new_id[self._parents[old]]
            for old in order
        ]
        weights = [self._weights[old] for old in order]
        return TaskTree(parents, weights)

    # ------------------------------------------------------------------
    # the tree protocol
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of tasks."""
        return len(self._parents)

    @property
    def root(self) -> int:
        """The unique sink task."""
        return self._root

    @property
    def parents(self) -> tuple[int, ...]:
        """``parents[i]`` consumes node *i*'s output (``-1`` for the root)."""
        return self._parents

    @property
    def weights(self) -> tuple[int, ...]:
        """Output data sizes :math:`w_i`."""
        return self._weights

    @property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """``children[i]`` lists the tasks whose output node *i* consumes."""
        return self._children

    @property
    def wbar(self) -> tuple[int, ...]:
        """Execution footprints :math:`\\bar w_i = \\max(w_i, \\sum_{j \\to i} w_j)`."""
        return self._wbar

    def core_lists(self) -> CoreLists:
        """The kernel cores' CSR view of this tree, built on first use."""
        lists = self._core_lists
        if lists is None:
            start = [0]
            cindex: list[int] = []
            for kids in self._children:
                cindex.extend(kids)
                start.append(len(cindex))
            lists = self._core_lists = CoreLists(
                self._weights,
                self._parents,
                tuple(start),
                tuple(cindex),
                self._topo,
                self._wbar,
            )
        return lists

    def parent(self, v: int) -> int:
        return self._parents[v]

    def weight(self, v: int) -> int:
        return self._weights[v]

    def subtree_size(self, v: int) -> int:
        """Number of nodes in the subtree rooted at ``v`` (including ``v``)."""
        return self._subtree_size[v]

    # ------------------------------------------------------------------
    # traversal helpers (all iterative: trees can be deep chains)
    # ------------------------------------------------------------------
    def topological_order(self) -> tuple[int, ...]:
        """A canonical root-first order (parents before children)."""
        return self._topo

    def bottom_up(self) -> Iterator[int]:
        """Iterate children before parents (reverse of the canonical order)."""
        return reversed(self._topo)

    def subtree_nodes(self, v: int) -> list[int]:
        """All nodes of the subtree rooted at ``v``, parent-first."""
        out = [v]
        for u in out:
            out.extend(self._children[u])
        return out

    def leaves(self) -> list[int]:
        """Tasks with no inputs."""
        return [v for v in range(self.n) if not self._children[v]]

    def depth(self) -> int:
        """Number of edges on the longest root-to-leaf path."""
        depth = [0] * self.n
        best = 0
        for v in self._topo:
            p = self._parents[v]
            if p != -1:
                depth[v] = depth[p] + 1
                if depth[v] > best:
                    best = depth[v]
        return best

    def path_to_root(self, v: int) -> list[int]:
        """``v`` and all its ancestors, ending at the root."""
        path = [v]
        while self._parents[path[-1]] != -1:
            path.append(self._parents[path[-1]])
        return path

    def postorder(
        self, child_order: Callable[[int], Sequence[int]] | None = None
    ) -> list[int]:
        """A postorder listing of the nodes.

        ``child_order(v)`` may supply the visit order of ``v``'s children
        (the lever that all postorder heuristics of the paper pull);
        it defaults to the construction order.
        """
        order = child_order if child_order is not None else (lambda v: self._children[v])
        out: list[int] = []
        # Stack of (node, emitted?) pairs, iterative to support deep chains.
        stack: list[tuple[int, bool]] = [(self._root, False)]
        while stack:
            v, emitted = stack.pop()
            if emitted:
                out.append(v)
            else:
                stack.append((v, True))
                kids = order(v)
                for c in reversed(list(kids)):
                    stack.append((c, False))
        return out

    # ------------------------------------------------------------------
    # model-level quantities
    # ------------------------------------------------------------------
    def min_feasible_memory(self) -> int:
        """``LB = max_i wbar_i``: below this no traversal exists at all."""
        return max(self._wbar)

    def total_weight(self) -> int:
        return sum(self._weights)

    # ------------------------------------------------------------------
    # dunder conveniences
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskTree):
            return NotImplemented
        return self._parents == other._parents and self._weights == other._weights

    def __hash__(self) -> int:
        return hash((self._parents, self._weights))

    def __repr__(self) -> str:
        return f"TaskTree(n={self.n}, root={self._root}, total_weight={self.total_weight()})"


# ----------------------------------------------------------------------
# small named constructors used across tests, examples and benchmarks
# ----------------------------------------------------------------------
def chain_tree(weights: Sequence[int]) -> TaskTree:
    """A chain ``leaf → ... → root``; ``weights[0]`` is the **root**."""
    n = len(weights)
    parents = [i - 1 for i in range(n)]
    return TaskTree(parents, weights)


def star_tree(root_weight: int, leaf_weights: Sequence[int]) -> TaskTree:
    """One root consuming ``len(leaf_weights)`` independent leaves."""
    parents = [-1] + [0] * len(leaf_weights)
    return TaskTree(parents, [root_weight, *leaf_weights])


def balanced_binary_tree(depth: int, weight: int | Callable[[int], int] = 1) -> TaskTree:
    """A complete binary tree with ``2**(depth+1) - 1`` nodes.

    ``weight`` may be a constant or a function of the node id.
    """
    n = 2 ** (depth + 1) - 1
    parents = [-1] + [(i - 1) // 2 for i in range(1, n)]
    if callable(weight):
        weights = [weight(i) for i in range(n)]
    else:
        weights = [weight] * n
    return TaskTree(parents, weights)
