"""The algorithm registry: one uniform entry point per strategy.

Every strategy of the paper is exposed as ``f(tree, memory) -> Traversal``:
the schedule is produced by the strategy, the I/O function is always the
FiF-optimal one for that schedule (Theorem 1), so comparisons are fair.
"""

from __future__ import annotations

from typing import Callable

from ..algorithms.liu import opt_min_mem
from ..algorithms.postorder import postorder_min_io, postorder_min_mem
from ..algorithms.rec_expand import full_rec_expand, rec_expand
from ..core.simulator import fif_traversal
from ..core.traversal import Traversal
from ..core.tree import TaskTree

__all__ = [
    "ALGORITHMS",
    "ORACLES",
    "PAPER_ALGORITHMS",
    "get_algorithm",
    "register_algorithm",
    "strategy_names",
]

Strategy = Callable[[TaskTree, int], Traversal]


def _opt_min_mem(tree: TaskTree, memory: int) -> Traversal:
    """``OPTMINMEM`` as a MinIO strategy (Section 4.4): Liu's schedule + FiF."""
    return fif_traversal(tree, opt_min_mem(tree)[0], memory)


def _postorder_min_io(tree: TaskTree, memory: int) -> Traversal:
    """``POSTORDERMINIO`` (Section 4.1): Agullo's best postorder + FiF."""
    return fif_traversal(tree, postorder_min_io(tree, memory).schedule, memory)


def _postorder_min_mem(tree: TaskTree, memory: int) -> Traversal:
    """``POSTORDERMINMEM``: peak-optimal postorder + FiF (extra baseline)."""
    return fif_traversal(tree, postorder_min_mem(tree).schedule, memory)


def _rec_expand(tree: TaskTree, memory: int) -> Traversal:
    """``RECEXPAND`` (Section 5, polynomial variant)."""
    return rec_expand(tree, memory).traversal


def _full_rec_expand(tree: TaskTree, memory: int) -> Traversal:
    """``FULLRECEXPAND`` (Algorithm 2, uncapped)."""
    return full_rec_expand(tree, memory).traversal


def _portfolio(tree: TaskTree, memory: int) -> Traversal:
    """The virtual best of the three polynomial strategies.

    Figure 7 shows no single heuristic dominates; a solver integrator
    would run all three (they are cheap relative to the factorization)
    and keep the cheapest traversal.  This is that baseline.
    """
    candidates = (
        _opt_min_mem(tree, memory),
        _postorder_min_io(tree, memory),
        _rec_expand(tree, memory),
    )
    return min(candidates, key=lambda c: c.io_volume)


def _exact(tree: TaskTree, memory: int) -> Traversal:
    """Exact branch-and-bound (exponential; guarded by a node limit)."""
    from ..algorithms.exact import exact_min_io

    return exact_min_io(tree, memory, node_limit=24).traversal


#: every polynomial strategy (safe on trees of any size)
ALGORITHMS: dict[str, Strategy] = {
    "OptMinMem": _opt_min_mem,
    "PostOrderMinIO": _postorder_min_io,
    "PostOrderMinMem": _postorder_min_mem,
    "RecExpand": _rec_expand,
    "FullRecExpand": _full_rec_expand,
    "Portfolio": _portfolio,
}

#: exponential-time references — only usable on small trees
ORACLES: dict[str, Strategy] = {
    "Exact": _exact,
}

#: the four strategies compared in the paper's Section 6
PAPER_ALGORITHMS = ("OptMinMem", "PostOrderMinIO", "RecExpand", "FullRecExpand")


def register_algorithm(name: str, strategy: Strategy, *, oracle: bool = False) -> None:
    """Register an extra strategy under ``name``.

    The batch engine ships algorithm *names* (not callables) to worker
    processes and resolves them through this registry, so a strategy
    must be registered at import time of its defining module — i.e. at
    module top level, never inside ``if __name__ == "__main__"`` — to be
    visible in every worker.

    Parameters
    ----------
    name:
        Registry key; must not collide with an existing strategy.
    strategy:
        A ``f(tree, memory) -> Traversal`` callable (picklable by
        reference, i.e. a module-level function).
    oracle:
        Register under :data:`ORACLES` (exponential-time references,
        excluded from the default figure comparisons) instead of
        :data:`ALGORITHMS`.
    """
    if name in ALGORITHMS or name in ORACLES:
        raise ValueError(f"algorithm {name!r} is already registered")
    (ORACLES if oracle else ALGORITHMS)[name] = strategy


def strategy_names() -> list[str]:
    """Every currently registered strategy name (heuristics, then oracles).

    Evaluated lazily so strategies registered after import (e.g. via
    :func:`register_algorithm` in a deployment's site module) are visible
    to the CLI and the service's protocol validation alike.
    """
    return sorted(ALGORITHMS) + sorted(ORACLES)


def get_algorithm(name: str) -> Strategy:
    """Resolve a registered strategy by name (heuristics, then oracles)."""
    try:
        return ALGORITHMS[name]
    except KeyError:
        pass
    try:
        return ORACLES[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; available: {strategy_names()}"
        ) from None
