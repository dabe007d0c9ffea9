"""Node expansion: making I/O decisions explicit in the tree structure.

Section 5 of the paper introduces *expansion* of a node ``i`` under an I/O
function ``tau``: the node is replaced by a chain

::

        i (w_i)   --->   i1 (w_i)  ->  i2 (w_i - tau(i))  ->  i3 (w_i)

whose three weights mimic the memory occupied by *i*'s output data

1. right after it is produced (``w_i``),
2. while part of it sits on disk (``w_i - tau(i)``), and
3. once it has been read back for the parent (``w_i``).

Expansion is the engine of both Theorem 2 (recovering a schedule from an
I/O function, see :func:`repro.algorithms.io_function.schedule_for_io_function`)
and the RecExpand heuristics (Algorithm 2), which repeatedly expand nodes
until the tree fits in memory.

This module provides :class:`ExpansionTree`, a mutable tree satisfying the
simulator/solver "tree protocol", with two extra properties:

* every node remembers which *original* node it stands for (``origin``),
  so schedules on the expanded tree can be transposed back;
* expanding a node that is already a *residual* (middle) node simply lowers
  its weight further — this matches the paper's Figure 6, where the second
  expansion of ``b`` turns the chain ``4, 2, 4`` into ``4, 1, 4`` rather
  than into ``4, 2, 1, 2, 4``.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Sequence

from .tree import TaskTree

__all__ = ["Role", "ExpansionTree", "expand_tree"]


class Role(IntEnum):
    """What an expansion-tree node represents."""

    ORIGINAL = 0  # the task itself (keeps the original children)
    RESIDUAL = 1  # the part of the output still in memory while written out
    READBACK = 2  # the output restored to full size before the parent runs


class ExpansionTree:
    """A mutable task tree supporting repeated node expansions.

    The structure grows monotonically: original nodes keep their ids
    (``0 .. base_n-1``), spliced nodes are appended.  All arrays are plain
    lists so the FiF simulator and the Liu solver can read them directly;
    besides ``children``, the CSR lists ``start``/``cindex`` and ``wbar``
    are kept current for :func:`repro.core.kernels.simulate_fif_core`.
    """

    def __init__(self, tree: TaskTree):
        self.base = tree
        self.base_n = tree.n
        lists = tree.core_lists()
        self.parents: list[int] = list(lists.parents)
        self.weights: list[int] = list(lists.weights)
        self.children: list[list[int]] = [list(c) for c in tree.children]
        self.start: list[int] = list(lists.start)
        self.cindex: list[int] = list(lists.cindex)
        self.wbar: list[int] = list(lists.wbar)
        self.root: int = tree.root
        self.origin: list[int] = list(range(tree.n))
        self.role: list[Role] = [Role.ORIGINAL] * tree.n
        #: total volume of I/O forced by expansions so far
        self.expanded_io: int = 0
        #: number of expansion operations applied
        self.num_expansions: int = 0

    @property
    def n(self) -> int:
        return len(self.parents)

    # ------------------------------------------------------------------
    def expand(self, v: int, amount: int) -> int:
        """Force ``amount`` more units of the data held by node ``v`` to disk.

        Returns the node from which cached per-subtree solutions become
        stale (the lowest modified node): the residual node itself for a
        weight reduction, or the new read-back node for a splice.
        """
        if amount <= 0:
            raise ValueError(f"expansion amount must be positive, got {amount}")
        if amount > self.weights[v]:
            raise ValueError(
                f"cannot expand node {v} by {amount}: only {self.weights[v]} resident"
            )

        self.expanded_io += amount
        self.num_expansions += 1

        if self.role[v] == Role.RESIDUAL:
            # The data this node stands for is already (partly) on disk;
            # writing more of it just shrinks the resident share.
            self.weights[v] -= amount
            return v

        # Splice  v -> residual -> readback -> old parent  above v.
        w = self.weights[v]
        residual = len(self.parents)
        readback = residual + 1
        parent = self.parents[v]

        self.parents.append(readback)  # residual's parent
        self.parents.append(parent)  # readback's parent
        self.weights.append(w - amount)
        self.weights.append(w)
        self.children.append([v])  # residual's children
        self.children.append([residual])  # readback's children
        # CSR: each new node owns one slot appended at the end.  Both
        # execute with w resident (their child weighs w, resp. at most
        # w), and every wbar already present is unchanged: the old parent
        # swaps a child of weight w for one of weight w, and a residual's
        # later weight reductions stay below its child's w.
        cindex = self.cindex
        cindex.append(v)
        self.start.append(len(cindex))
        cindex.append(residual)
        self.start.append(len(cindex))
        self.wbar.extend((w, w))
        self.origin.extend((self.origin[v], self.origin[v]))
        self.role.extend((Role.RESIDUAL, Role.READBACK))

        self.parents[v] = residual
        if parent == -1:
            self.root = readback
        else:
            kids = self.children[parent]
            slot = kids.index(v)
            kids[slot] = readback
            cindex[self.start[parent] + slot] = readback
        return readback

    # ------------------------------------------------------------------
    def restrict_schedule(self, schedule: Sequence[int]) -> list[int]:
        """Drop helper nodes, mapping a schedule back to original node ids.

        Exactly one node per original task has role ``ORIGINAL`` — the
        task's own id, below ``base_n`` (splices always append
        ``RESIDUAL``/``READBACK`` nodes) — so the result is a permutation
        of the original nodes, in execution order.
        """
        base_n = self.base_n
        return [v for v in schedule if v < base_n]

    def as_task_tree(self) -> TaskTree:
        """Freeze the current expanded structure into an immutable tree."""
        return TaskTree(self.parents, self.weights)

    def io_per_original_node(self) -> dict[int, int]:
        """Total expansion volume attributed to each original node."""
        out: dict[int, int] = {}
        for v in range(self.base_n, self.n):
            if self.role[v] == Role.RESIDUAL:
                orig = self.origin[v]
                # Each residual node holds w_orig - (written so far through it).
                out[orig] = out.get(orig, 0) + 0
        # Simpler and exact: walk residuals comparing against the readback
        # above them (which always carries the full size).
        out = {}
        for v in range(self.n):
            if self.role[v] == Role.RESIDUAL:
                full = self.weights[self.parents[v]]  # readback holds w_orig
                out[self.origin[v]] = out.get(self.origin[v], 0) + (
                    full - self.weights[v]
                )
        return out

    def __repr__(self) -> str:
        return (
            f"ExpansionTree(n={self.n}, base_n={self.base_n}, "
            f"expanded_io={self.expanded_io})"
        )


def expand_tree(tree: TaskTree, io: Sequence[int]) -> tuple[TaskTree, ExpansionTree]:
    """One-shot expansion of every node with ``io[i] > 0`` (Theorem 2 setup).

    Returns the frozen expanded tree together with the
    :class:`ExpansionTree` carrying the origin bookkeeping.
    """
    if len(io) != tree.n:
        raise ValueError("io function is not index-aligned with the tree")
    xt = ExpansionTree(tree)
    for v, amount in enumerate(io):
        if amount < 0 or amount > tree.weights[v]:
            raise ValueError(f"io amount of node {v} out of range: {amount}")
        if amount > 0:
            xt.expand(v, amount)
    return xt.as_task_tree(), xt
