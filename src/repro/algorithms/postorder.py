"""Best postorder traversals for peak memory and for I/O volume.

Two classic algorithms, both running in ``O(n log n)``:

* ``POSTORDERMINMEM`` (Liu 1986): among all postorders, minimise the peak
  memory.  At every node the children subtrees are visited by decreasing
  ``S_j - w_j``, where ``S_j`` is the subtree's own postorder peak.

* ``POSTORDERMINIO`` (Agullo 2008, adapted — Section 4.1 / Algorithm 1 of
  the paper): among all postorders, minimise the I/O volume under memory
  ``M`` with FiF evictions.  Children are visited by decreasing
  ``A_j - w_j`` with ``A_j = min(M, S_j)`` the amount of *main* memory the
  subtree's out-of-core execution uses, and the I/O volume obeys

  .. math::

     V_i = \\max\\Bigl(0,\\; \\max_j \\bigl(A_j + \\sum_{k<j} w_k\\bigr) - M\\Bigr)
           + \\sum_j V_j .

  Both orderings are instances of Liu's rearrangement lemma (Theorem 3):
  sorting pairs ``(x_j, y_j)`` by decreasing ``x_j - y_j`` minimises
  ``max_j (x_j + sum_{k<j} y_k)``.

Both run on one list core, :func:`repro.core.kernels.best_postorder`;
:func:`postorder_with_child_key` passes it a different child rank.  The
predicted ``V_root`` must coincide with the FiF simulator's measure of
the produced schedule — an invariant the tests check on every
cross-validation tree, next to enumeration of all postorders on small
trees (Theorem 3) and the frozen golden corpus on large ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import kernels
from ..core.tree import TaskTree

__all__ = [
    "PostorderResult",
    "postorder_min_mem",
    "postorder_min_io",
    "postorder_with_child_key",
    "CHILD_ORDER_KEYS",
]


@dataclass(frozen=True)
class PostorderResult:
    """A postorder schedule plus the quantities its construction predicts."""

    schedule: tuple[int, ...]
    #: postorder peak memory of each subtree (``S_i``)
    storage: tuple[int, ...]
    #: predicted peak memory of the whole schedule (``S_root``)
    peak_memory: int
    #: predicted I/O volume (``V_root``; 0 for the MinMem variant)
    predicted_io: int


#: child-ordering keys for the ablation benchmarks.  Each maps
#: (storage S_c, weight w_c, memory M) -> rank; children are visited by
#: *decreasing* rank, ties in ascending id order.
CHILD_ORDER_KEYS: dict[str, kernels.Rank] = {
    "A-w": lambda s, w, m: min(m, s) - w,  # the paper's PostOrderMinIO key
    "S-w": lambda s, w, m: s - w,  # Liu's MinMem key
    "A": lambda s, w, m: min(m, s),  # ignore the residue
    "-w": lambda s, w, m: -w,  # lightest residue first
    "input-order": lambda s, w, m: 0,  # a constant rank keeps ascending ids
}


def _core_result(
    tree, memory: int | None, rank: kernels.Rank | None = None
) -> PostorderResult:
    schedule, storage, vio = kernels.best_postorder(tree, memory, rank)
    return PostorderResult(
        schedule=tuple(schedule),
        storage=tuple(storage),
        peak_memory=storage[tree.root],
        predicted_io=vio[tree.root],
    )


def postorder_min_mem(tree: TaskTree) -> PostorderResult:
    """``POSTORDERMINMEM``: the peak-memory-optimal postorder (Liu 1986).

    Runs the list core, so ``tree`` must have ``core_lists()`` (a
    :class:`TaskTree` or an :class:`~repro.core.arraytree.ArrayTree`).
    """
    return _core_result(tree, None)


def postorder_min_io(tree: TaskTree, memory: int) -> PostorderResult:
    """``POSTORDERMINIO`` (Algorithm 1): the I/O-optimal postorder.

    ``predicted_io`` is Agullo's ``V_root`` — by Theorem 4 this is the
    overall optimum on homogeneous trees, and on general trees it equals
    the FiF cost of the returned schedule.  Runs the list core, like
    :func:`postorder_min_mem`.
    """
    if memory <= 0:
        raise ValueError(f"memory bound must be positive, got {memory}")
    return _core_result(tree, memory)


def postorder_with_child_key(
    tree: TaskTree, memory: int, key: str
) -> PostorderResult:
    """A postorder using one of the :data:`CHILD_ORDER_KEYS` orderings.

    With ``key="A-w"`` this *is* ``POSTORDERMINIO``; the other keys exist
    to quantify how much Theorem 3's ordering matters (ablation benches).
    Runs the list core with the key as its child rank; ``S_i`` and
    ``predicted_io`` are exact for whatever postorder the key yields.
    """
    try:
        rank = CHILD_ORDER_KEYS[key]
    except KeyError:
        raise KeyError(
            f"unknown child order key {key!r}; available: {sorted(CHILD_ORDER_KEYS)}"
        ) from None
    return _core_result(tree, memory, rank)
