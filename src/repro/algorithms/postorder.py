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

The predicted ``V_root`` must coincide with the FiF simulator's measure of
the produced schedule — an invariant exercised by the test suite.
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
    "postorder_schedule_with_orders",
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


def postorder_schedule_with_orders(
    tree: TaskTree, child_order: list[list[int]]
) -> list[int]:
    """Emit the postorder defined by per-node children visit orders."""
    return tree.postorder(lambda v: child_order[v])


#: child-ordering keys for the ablation benchmarks.  Each maps
#: (storage S_c, weight w_c, memory M) -> sort key; children are visited by
#: *decreasing* key.  ``None`` means "keep the input order".
CHILD_ORDER_KEYS = {
    "A-w": lambda s, w, m: min(m, s) - w,  # the paper's PostOrderMinIO key
    "S-w": lambda s, w, m: s - w,  # Liu's MinMem key
    "A": lambda s, w, m: min(m, s),  # ignore the residue
    "-w": lambda s, w, m: -w,  # lightest residue first
    "input-order": None,
}


def _best_postorder(
    tree: TaskTree, memory: int | None, key_fn=None
) -> PostorderResult:
    """The object reference: ``memory=None`` → MinMem keys, otherwise MinIO keys.

    The tests compare the list core against it, and it is the path of
    :func:`postorder_with_child_key`.

    ``key_fn`` overrides the child-ordering key (ablations); the ``S_i``
    and ``V_i`` recursions stay valid for *any* postorder, only the
    optimality of the result depends on the key.
    """
    n = tree.n
    weights = tree.weights
    storage = [0] * n  # S_i
    vio = [0] * n  # V_i (only meaningful when memory is not None)
    child_order: list[list[int]] = [[] for _ in range(n)]

    for v in tree.bottom_up():
        kids = tree.children[v]
        if not kids:
            storage[v] = weights[v]
            continue

        if key_fn is not None:
            key = lambda c: key_fn(storage[c], weights[c], memory)
        elif memory is None:
            key = lambda c: storage[c] - weights[c]
        else:
            key = lambda c: min(memory, storage[c]) - weights[c]
        ordered = sorted(kids, key=lambda c: (-key(c), c))
        child_order[v] = ordered

        peak = weights[v]
        worst_active = 0  # max_j (A_j + sum_{k<j} w_k)
        prefix = 0
        for c in ordered:
            peak = max(peak, storage[c] + prefix)
            if memory is not None:
                worst_active = max(worst_active, min(memory, storage[c]) + prefix)
            prefix += weights[c]
        storage[v] = peak
        if memory is not None:
            vio[v] = max(0, worst_active - memory) + sum(vio[c] for c in kids)

    schedule = postorder_schedule_with_orders(tree, child_order)
    return PostorderResult(
        schedule=tuple(schedule),
        storage=tuple(storage),
        peak_memory=storage[tree.root],
        predicted_io=vio[tree.root],
    )


def _core_result(tree, memory: int | None) -> PostorderResult:
    schedule, storage, vio = kernels.best_postorder(tree, memory)
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
    :func:`_best_postorder` is the object reference it is tested against.
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
    """
    try:
        key_fn = CHILD_ORDER_KEYS[key]
    except KeyError:
        raise KeyError(
            f"unknown child order key {key!r}; available: {sorted(CHILD_ORDER_KEYS)}"
        ) from None
    if key_fn is None:
        key_fn = lambda s, w, m: 0  # stable sort keeps input order
    return _best_postorder(tree, memory, key_fn)
