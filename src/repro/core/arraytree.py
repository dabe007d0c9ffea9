"""Flat-array task trees: the million-node representation.

:class:`~repro.core.tree.TaskTree` stores one Python tuple per node
(children lists, topo order, ...), which is comfortable for the paper's
3 000-node SYNTH trees but dominates time and memory once instances reach
the 10^5–10^6 nodes of real assembly trees (Liu's pebbling experiments,
Marchal–Sinnen–Vivien and follow-ups all assume linear-time traversals at
that scale).  :class:`ArrayTree` is the flat alternative:

* ``parents`` / ``weights`` / ``wbar`` / ``topo`` are ``array('q')``
  (64-bit signed) buffers — 8 bytes per node, no per-node objects;
* children are stored in **CSR form**: ``child_index`` concatenates every
  node's children (ascending ids, which is also the construction order
  of the equivalent ``TaskTree``), ``child_start[v] : child_start[v+1]``
  delimits node *v*'s slice;
* construction is numpy-assisted (bincount / stable argsort / vectorised
  validation) — no Python loop runs per *edge*, only one cheap loop per
  node for the canonical BFS order.

The class satisfies the same "tree protocol" (``n``, ``root``,
``parents``, ``weights``, ``children``, ``wbar``) as :class:`TaskTree`,
so every object-engine algorithm also runs on it unchanged; the
iterative kernels in :mod:`repro.core.kernels` additionally exploit the
flat layout directly.  ``TaskTree ↔ ArrayTree`` conversion is exact in
both directions, and invalid descriptions are rejected with the same
:class:`~repro.core.tree.TreeError` vocabulary as ``TaskTree``.

One deliberate restriction: all quantities must fit comfortably in
int64 (node weights *and* their tree-wide sums).  Inputs outside that
range raise :class:`TreeError`; such trees stay
:class:`~repro.core.tree.TaskTree` objects, whose cached lists the
kernel cores read with arbitrary-precision Python integers.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain
from typing import Iterator, Sequence

import numpy as np

from .tree import CoreLists, TaskTree, TreeError

__all__ = ["ArrayTree", "as_array_tree", "validate_columns"]

#: refuse weight totals above this (int64 headroom for sums of sums).
_MAX_TOTAL_WEIGHT = 2**62



def validate_columns(parents: Sequence[int], weights: Sequence[int]) -> None:
    """Accept exactly the trees :class:`ArrayTree` accepts, in a fraction
    of the time; raise :class:`~repro.core.tree.TreeError` otherwise.

    The one O(n) numpy check behind both service encodings (JSON lists
    and binary-frame int64 views).  Its messages are terse: callers that
    must report *why* a tree is invalid build a :class:`TaskTree` from a
    refused input, whose verdict and wording are the reference (it also
    accepts what this check refuses for size alone: weights beyond int64
    or beyond :data:`_MAX_TOTAL_WEIGHT`).

    What is checked is the structural contract — equal column lengths,
    non-negative weights, total within the flat engine's int64 budget,
    exactly one root, parents in range, acyclic (which, with every chain
    ending at the single root, is connectivity too).  Acyclicity is
    checked by pointer doubling: ``anc`` holds each node's ``2^k``-step
    ancestor, so after ``ceil(log2 n)`` rounds every acyclic chain has
    run off the root into the sentinel and only cycle members still
    point at a node.
    """
    try:
        p = np.asarray(parents, dtype=np.int64)
        w = np.asarray(weights, dtype=np.int64)
    except OverflowError:
        raise TreeError("a column does not fit int64") from None
    n = len(p)
    if n == 0:
        raise TreeError("a task tree needs at least one node")
    if len(w) != n:
        raise TreeError("parents and weights disagree on size")
    if bool(np.any(w < 0)):
        raise TreeError("negative weight")
    if float(np.sum(w, dtype=np.float64)) > _MAX_TOTAL_WEIGHT:
        raise TreeError("total weight exceeds the array engine's budget")
    if int(np.count_nonzero(p == -1)) != 1:
        raise TreeError("need exactly one root (parent -1)")
    if bool(np.any((p < -1) | (p >= n))):
        raise TreeError("out-of-range parent")
    anc = np.empty(n + 1, dtype=np.int64)
    np.copyto(anc[:n], np.where(p >= 0, p, n))  # -1 → the sentinel slot
    anc[n] = n  # the sentinel absorbs finished chains
    step = 1
    while step < n:
        anc = anc[anc]
        step *= 2
    if bool(np.any(anc[:n] != n)):
        raise TreeError("parent links contain a cycle")

class _CSRChildren:
    """Indexable view of the children lists backed by the CSR arrays.

    ``children[v]`` returns node *v*'s children as an ``array('q')``
    slice — iterable, indexable and len()-able, which is all the tree
    protocol demands.
    """

    __slots__ = ("_start", "_index", "_n")

    def __init__(self, start: array, index: array, n: int):
        self._start = start
        self._index = index
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, v: int) -> array:
        if v < 0:
            v += self._n
        if not 0 <= v < self._n:
            raise IndexError(f"node {v} out of range")
        return self._index[self._start[v] : self._start[v + 1]]

    def __iter__(self) -> Iterator[array]:
        index, start = self._index, self._start
        for v in range(self._n):
            yield index[start[v] : start[v + 1]]


def _int64_column(values: Sequence[int], what: str, *, strict: bool) -> np.ndarray:
    """Validate a parents/weights column into an int64 numpy array.

    ``strict=True`` mirrors ``TaskTree``'s weight rules exactly: booleans
    and non-integral values are rejected, integral floats are accepted.
    ``strict=False`` mirrors its parent handling (plain ``int()``
    coercion, i.e. floats truncate and booleans count as 0/1).  Values
    outside int64 raise ``TreeError`` (the object engine handles those).
    """
    if isinstance(values, np.ndarray):
        arr = values
        if strict and arr.dtype == np.bool_:
            raise TreeError(
                f"{what} of node 0 is not an integer: {bool(arr.flat[0])!r}"
            )
    else:
        if strict and not isinstance(values, array):
            # A bool is a Python int, so numpy would silently coerce it;
            # TaskTree rejects bool weights — scan before converting.
            for i, v in enumerate(values):
                if type(v) is bool:
                    raise TreeError(f"{what} of node {i} is not an integer: {v!r}")
        try:
            arr = np.asarray(values)
        except (TypeError, ValueError, OverflowError) as exc:
            raise TreeError(f"invalid {what} column: {exc}") from None
    if arr.ndim != 1:
        raise TreeError(f"{what} must be a flat sequence")
    if arr.dtype == object or not (
        np.issubdtype(arr.dtype, np.integer)
        or np.issubdtype(arr.dtype, np.floating)
        or arr.dtype == np.bool_
    ):
        # Mixed / big-int / non-numeric content: fall back to exact
        # per-element validation so error messages match TaskTree.
        out = np.empty(len(arr), dtype=np.int64)
        for i, v in enumerate(arr.tolist() if isinstance(arr, np.ndarray) else arr):
            if strict and (isinstance(v, bool) or int(v) != v):
                raise TreeError(f"{what} of node {i} is not an integer: {v!r}")
            try:
                v = int(v)
            except (TypeError, ValueError) as exc:
                raise TreeError(f"{what} of node {i}: {exc}") from None
            if not -(2**63) <= v < 2**63:
                raise TreeError(f"{what} of node {i} does not fit int64: {v!r}")
            out[i] = v
        return out
    if np.issubdtype(arr.dtype, np.floating):
        if strict:
            bad = np.flatnonzero(arr != np.floor(arr))
            if len(bad):
                i = int(bad[0])
                raise TreeError(f"{what} of node {i} is not an integer: {arr[i]!r}")
        if np.any(~np.isfinite(arr)) or np.any(np.abs(arr) >= 2.0**63):
            raise TreeError(f"{what} column does not fit int64")
        # astype truncates toward zero, matching int() for the lenient path
        # (and being exact for the strict one, which proved integrality).
        return arr.astype(np.int64)
    return arr.astype(np.int64, copy=False)


def _from_numpy(arr: np.ndarray) -> array:
    out = array("q")
    out.frombytes(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    return out


class ArrayTree:
    """An immutable rooted in-tree stored as flat 64-bit arrays.

    Same model and validation rules as :class:`TaskTree` (single root at
    parent ``-1``, non-negative integer weights, connected and acyclic),
    but every derived structure is a flat buffer.  See the module
    docstring for the layout.
    """

    __slots__ = (
        "_parents",
        "_weights",
        "_child_start",
        "_child_index",
        "_wbar",
        "_topo",
        "_root",
        "_n",
        "_children_view",
        "_total_weight",
    )

    def __init__(self, parents: Sequence[int], weights: Sequence[int]):
        n = len(parents)
        if len(weights) != n:
            raise TreeError(
                f"parents and weights disagree on size: {n} != {len(weights)}"
            )
        if n == 0:
            raise TreeError("a task tree needs at least one node")

        p = _int64_column(parents, "parent", strict=False)
        w = _int64_column(weights, "weight", strict=True)

        neg = np.flatnonzero(w < 0)
        if len(neg):
            i = int(neg[0])
            raise TreeError(f"weight of node {i} is negative: {int(w[i])}")
        # Budget check on a float estimate first (overflow-safe), then the
        # exact int64 sum — which the passed check guarantees is exact.
        estimate = float(np.sum(w, dtype=np.float64))
        if estimate > _MAX_TOTAL_WEIGHT:
            raise TreeError(
                f"total weight ~{estimate:.3g} exceeds the array engine's int64 "
                f"budget ({_MAX_TOTAL_WEIGHT}); use TaskTree (object engine)"
            )
        total = int(np.sum(w))

        roots = np.flatnonzero(p == -1)
        if len(roots) == 0:
            raise TreeError("no root (node with parent -1) found")
        if len(roots) > 1:
            raise TreeError(f"two roots: {int(roots[0])} and {int(roots[1])}")
        bad = np.flatnonzero((p < -1) | (p >= n))
        if len(bad):
            i = int(bad[0])
            raise TreeError(f"node {i} has out-of-range parent {int(p[i])}")
        root = int(roots[0])

        self._n = n
        self._root = root
        self._parents = _from_numpy(p)
        self._weights = _from_numpy(w)

        # Children in CSR form.  np.flatnonzero is ascending, and a stable
        # argsort groups by parent while preserving that order — exactly
        # the construction order TaskTree uses for its children tuples.
        nonroot = np.flatnonzero(p >= 0)
        par_of = p[nonroot]
        counts = np.bincount(par_of, minlength=n)
        child_index = nonroot[np.argsort(par_of, kind="stable")]
        child_start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=child_start[1:])
        self._child_start = _from_numpy(child_start)
        self._child_index = _from_numpy(child_index)
        self._children_view = _CSRChildren(self._child_start, self._child_index, n)

        # Canonical BFS order (identical to TaskTree's), which doubles as
        # the connectivity / acyclicity check.  The only per-node Python
        # loop of the construction; every step is a C-level slice extend.
        topo = [root]
        start = self._child_start
        index = self._child_index
        for v in topo:
            s = start[v]
            e = start[v + 1]
            if s != e:
                topo.extend(index[s:e])
        if len(topo) != n:
            raise TreeError("graph is not connected / contains a cycle")
        self._topo = array("q", topo)

        # wbar = max(w, sum of children weights) — exact int64 scatter-add
        # (np.bincount would go through float64 and lose precision).
        inputs = np.zeros(n, dtype=np.int64)
        np.add.at(inputs, par_of, w[nonroot])
        self._wbar = _from_numpy(np.maximum(w, inputs))
        self._total_weight = total

    # ------------------------------------------------------------------
    # conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_task_tree(cls, tree: TaskTree) -> "ArrayTree":
        """Exact conversion; reuses the TaskTree's cached derived data."""
        self = cls.__new__(cls)
        n = tree.n
        self._n = n
        self._root = tree.root
        self._parents = array("q", tree.parents)
        try:
            self._weights = array("q", tree.weights)
            self._wbar = array("q", tree.wbar)
        except OverflowError:
            raise TreeError(
                "weights exceed the array engine's int64 range; "
                "use TaskTree (object engine)"
            ) from None
        if tree.total_weight() > _MAX_TOTAL_WEIGHT:
            raise TreeError(
                f"total weight {tree.total_weight()} exceeds the array "
                f"engine's int64 budget ({_MAX_TOTAL_WEIGHT})"
            )
        children = tree.children
        self._child_start = array(
            "q", accumulate(chain((0,), map(len, children)))
        )
        self._child_index = array("q", chain.from_iterable(children))
        self._children_view = _CSRChildren(self._child_start, self._child_index, n)
        self._topo = array("q", tree.topological_order())
        self._total_weight = tree.total_weight()
        return self

    def to_task_tree(self) -> TaskTree:
        """Exact inverse of :meth:`from_task_tree` (re-validates)."""
        return TaskTree(self._parents.tolist(), self._weights.tolist())

    def to_dict(self) -> dict[str, list[int]]:
        """Plain-JSON form, interchangeable with :meth:`TaskTree.to_dict`."""
        return {"parents": self._parents.tolist(), "weights": self._weights.tolist()}

    @classmethod
    def from_dict(cls, data) -> "ArrayTree":
        return cls(data["parents"], data["weights"])

    # ------------------------------------------------------------------
    # the tree protocol
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self._n

    @property
    def root(self) -> int:
        return self._root

    @property
    def parents(self) -> array:
        return self._parents

    @property
    def weights(self) -> array:
        return self._weights

    @property
    def children(self) -> _CSRChildren:
        return self._children_view

    @property
    def wbar(self) -> array:
        return self._wbar

    def core_lists(self) -> "_ArrayCoreLists":
        """The kernel cores' view: a fresh view per call, never cached.

        Each column is converted to a list only when a core first reads
        it, so a call pays for the columns it uses and no more.
        Million-node trees would otherwise keep a second, list-of-int
        copy of every column alive for their whole lifetime.
        """
        return _ArrayCoreLists(
            self._weights,
            self._parents,
            self._child_start,
            self._child_index,
            self._topo,
            self._wbar,
        )

    def parent(self, v: int) -> int:
        return self._parents[v]

    def weight(self, v: int) -> int:
        return self._weights[v]

    def arity(self, v: int) -> int:
        return self._child_start[v + 1] - self._child_start[v]

    # ------------------------------------------------------------------
    # traversal helpers
    # ------------------------------------------------------------------
    def topological_order(self) -> array:
        """The canonical root-first BFS order (parents before children)."""
        return self._topo

    def bottom_up(self):
        """Iterate children before parents."""
        return reversed(self._topo)

    def leaves(self) -> list[int]:
        start = self._child_start
        return [v for v in range(self._n) if start[v] == start[v + 1]]

    def depth(self) -> int:
        """Number of edges on the longest root-to-leaf path."""
        depth = [0] * self._n
        parents = self._parents
        best = 0
        for v in self._topo:
            p = parents[v]
            if p != -1:
                d = depth[p] + 1
                depth[v] = d
                if d > best:
                    best = d
        return best

    def postorder(self, child_order=None) -> list[int]:
        """A postorder listing (same contract as :meth:`TaskTree.postorder`)."""
        start, index = self._child_start, self._child_index
        if child_order is None:
            child_order = lambda v: index[start[v] : start[v + 1]]
        out: list[int] = []
        node_stack = [self._root]
        iter_stack = [0]
        kid_stack = [child_order(self._root)]
        while node_stack:
            i = iter_stack[-1]
            kids = kid_stack[-1]
            if i < len(kids):
                iter_stack[-1] = i + 1
                c = kids[i]
                node_stack.append(c)
                iter_stack.append(0)
                kid_stack.append(child_order(c))
            else:
                out.append(node_stack.pop())
                iter_stack.pop()
                kid_stack.pop()
        return out

    # ------------------------------------------------------------------
    # model-level quantities
    # ------------------------------------------------------------------
    def min_feasible_memory(self) -> int:
        return max(self._wbar)

    def total_weight(self) -> int:
        return self._total_weight

    # ------------------------------------------------------------------
    # dunder conveniences
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ArrayTree):
            return (
                self._parents == other._parents and self._weights == other._weights
            )
        if isinstance(other, TaskTree):
            return (
                tuple(self._parents) == other.parents
                and tuple(self._weights) == other.weights
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((tuple(self._parents), tuple(self._weights)))

    def __repr__(self) -> str:
        return (
            f"ArrayTree(n={self._n}, root={self._root}, "
            f"total_weight={self._total_weight})"
        )


class _ArrayCoreLists:
    """:class:`~repro.core.tree.CoreLists` fields over numpy columns.

    Same field names; each field is the column's ``tolist()``, made on
    first access and kept for the life of this view.
    """

    __slots__ = ("_columns",) + CoreLists._fields

    def __init__(self, *columns: np.ndarray):
        self._columns = dict(zip(CoreLists._fields, columns))

    def __getattr__(self, name: str):
        try:
            column = self._columns[name]
        except KeyError:
            raise AttributeError(name) from None
        value = column.tolist()
        setattr(self, name, value)
        return value


def as_array_tree(tree) -> ArrayTree:
    """Coerce a protocol-compatible tree to :class:`ArrayTree`.

    ``ArrayTree`` passes through; ``TaskTree`` converts exactly; anything
    else (e.g. a mutable expansion tree) raises ``TypeError`` — mutable
    trees cannot be frozen into flat buffers.
    """
    if isinstance(tree, ArrayTree):
        return tree
    if isinstance(tree, TaskTree):
        return ArrayTree.from_task_tree(tree)
    raise TypeError(f"cannot convert {type(tree).__name__} to ArrayTree")
