"""Kernel-engine selection: the list cores vs the object reference.

Two interchangeable engines compute every core quantity of the
reproduction:

``array``
    the iterative list cores of :mod:`repro.core.kernels`, run on a
    tree's CSR lists (:meth:`TaskTree.core_lists
    <repro.core.tree.TaskTree.core_lists>`, cached per tree, or an
    :class:`~repro.core.arraytree.ArrayTree`'s columns) — no recursion,
    no per-node objects, arbitrary-precision integers;
``object``
    the original implementations over the tree protocol — per-node
    Python structures.  Kept as the cross-validation reference.

Results are **exactly equal** (schedules, ``S_i``/``V_i``, I/O
functions, peaks) — the randomized cross-validation harness and the
golden corpus enforce this — so engine choice is purely a performance
knob.  The default mode ``auto`` runs the list cores at every tree size
and on either representation, so ``array`` is now an alias of ``auto``
(both names stay accepted).  Trees outside the two representations
(e.g. mutable expansion trees) take the object path.

:data:`AUTO_THRESHOLD` no longer selects an engine.  It only picks the
representation a tree is *built* as where the code builds one from raw
columns: :func:`repro.api.execution.build_tree` (requests constructed
directly, e.g. by the CLI's ``solve``) and the shared-memory transport's
per-request slice.  Requests that came through
:func:`repro.api.requests.parse_request` run on the ``TaskTree`` built
for their validation, whatever their size.

Selection surface, in precedence order:

1. an explicit ``engine=`` argument on the public APIs;
2. the innermost :func:`engine_scope` context (thread-local — the
   service's inline worker threads do not leak into each other);
3. the process default, settable with :func:`set_default_engine` and
   seeded from the ``REPRO_ENGINE`` environment variable.

Because results are identical across engines, the batch engine's and
the service's content-addressed cache keys deliberately *exclude* the
engine: a result computed by either engine serves requests for both.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager


__all__ = [
    "ENGINES",
    "AUTO_THRESHOLD",
    "default_engine",
    "set_default_engine",
    "engine_scope",
    "resolve_engine",
    "runs_on_cores",
]

#: the accepted engine names.
ENGINES = ("auto", "object", "array")

#: where a tree is built from raw columns (``build_tree``, the
#: shared-memory slice), at least this many nodes make an
#: :class:`~repro.core.arraytree.ArrayTree` (vectorised construction);
#: fewer make a :class:`~repro.core.tree.TaskTree`, whose cached lists
#: the cores read without a conversion.  Not an engine switch.
AUTO_THRESHOLD = 512

_local = threading.local()


def _checked(name: str) -> str:
    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r}; available: {ENGINES}")
    return name


def _default_from_env() -> str:
    """Seed the process default from ``REPRO_ENGINE``.

    Runs at import time, so an invalid value must not raise (it would
    take down every ``import repro``, including ``--version``); warn and
    fall back to ``auto`` instead.
    """
    name = os.environ.get("REPRO_ENGINE", "auto")
    if name not in ENGINES:
        import warnings

        warnings.warn(
            f"ignoring invalid REPRO_ENGINE={name!r}; available: {ENGINES}",
            RuntimeWarning,
            stacklevel=2,
        )
        return "auto"
    return name


_default = _default_from_env()


def default_engine() -> str:
    """The engine in effect when no explicit argument/scope overrides it."""
    return getattr(_local, "engine", None) or _default


def set_default_engine(name: str) -> str:
    """Set the process-wide default; returns the previous value."""
    global _default
    previous = _default
    _default = _checked(name)
    return previous


@contextmanager
def engine_scope(name: str | None):
    """Thread-locally pin the engine for the duration of the block.

    ``None`` and ``"auto"`` are no-op scopes: ``auto`` means "no
    preference", so it must *not* shadow a process default set with
    :func:`set_default_engine` or ``REPRO_ENGINE`` (e.g. the
    ``serve --engine`` server-wide setting, which requests that do not
    pin an engine are supposed to inherit).
    """
    if name is None or _checked(name) == "auto":
        yield
        return
    previous = getattr(_local, "engine", None)
    _local.engine = name
    try:
        yield
    finally:
        _local.engine = previous


def resolve_engine(engine: str | None) -> str:
    """Resolve an optional override into ``"object"`` or ``"array"``.

    ``auto`` resolves to ``array`` whatever the tree: the list cores run
    at every size.
    """
    name = _checked(engine) if engine is not None else default_engine()
    return "object" if name == "object" else "array"


def runs_on_cores(tree, engine: str | None = None) -> bool:
    """The dispatch test used by every public API.

    True when the resolved engine is ``array`` and the tree provides
    ``core_lists()`` (a :class:`~repro.core.tree.TaskTree` or an
    :class:`~repro.core.arraytree.ArrayTree`); False means: run the
    object reference.
    """
    return resolve_engine(engine) != "object" and hasattr(tree, "core_lists")
