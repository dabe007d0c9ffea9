"""The typed request model shared by every execution surface.

One tree, one question, one canonical identity.  The CLI's ``solve``,
the batch engine's shard units and the service's wire protocol all used
to carry their own request shapes with their own validation and key
derivation; these dataclasses are the single model underneath all of
them:

:class:`SolveRequest`
    run one registered strategy, return its traversal and I/O volume;
:class:`PagingRequest`
    execute the strategy's schedule through the page-granular pager
    under one or more eviction policies;
:class:`ExactRequest`
    branch-and-bound optimum plus the paper heuristics' gaps
    (small trees only);
:class:`BatchRequest`
    many trees under one parameter set — the batch engine's unit of
    work, solved through the forest kernels when possible.

Validation happens in :func:`parse_request`, before anything touches a
queue, a worker or a socket, and only there: it either returns a frozen
request object or raises :class:`~repro.api.errors.ProtocolError` with a
stable machine-readable code.  The frozen object is what travels on —
through the service's admission queue and into its worker processes —
so nothing downstream parses it again.  Each request canonicalises
itself into ``to_payload()`` (the dict sent over the wire) and derives
its content address with :meth:`key` — a buffer
digest via :func:`repro.datasets.store.cache_key_buffers` over the
canonical int64 tree columns, salted with :data:`ENGINE_VERSION`.  The
digest is identical whether the columns are Python tuples or numpy
arrays, and it is computed **once** per
(frozen) instance: the cache lookup, the in-flight dedup and the
worker's RNG seeding all reuse one canonicalisation.  Because every
backend derives keys through this one path, identical requests collapse
onto one computation — and one cache entry — everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from ..core.arraytree import validate_columns
from ..core.tree import TaskTree, TreeError
from ..datasets.store import cache_key_buffers
from ..obs.trace import MAX_TRACE_ID
from .errors import ProtocolError

__all__ = [
    "BatchRequest",
    "CanonicalRequest",
    "DEFAULT_PAGING_POLICIES",
    "ENGINE_VERSION",
    "ExactRequest",
    "MAX_NODES",
    "MEMORY_POLICIES",
    "PagingRequest",
    "Request",
    "SolveRequest",
    "TreeColumns",
    "check_tree_columns",
    "parse_request",
    "unit_seed",
]

#: bump when the result payload format changes; part of every cache key
#: (batch work units *and* service requests) so stale entries from older
#: engine versions can never be returned.
#: v2: keys are buffer digests (:func:`repro.datasets.store.cache_key_buffers`
#: over the canonical int64 tree columns) instead of JSON-marshalled lists.
ENGINE_VERSION = 2

#: hard ceiling on tree sizes accepted over the wire — the service is a
#: query front-end, not a bulk pipeline; anything larger belongs in the
#: offline batch engine.
MAX_NODES = 100_000

#: default policy set for ``paging`` requests — the same four, in the
#: same order, as the offline ``repro-ioschedule paging`` command, so a
#: served request without an explicit list matches the CLI's output.
DEFAULT_PAGING_POLICIES = ("belady", "lru", "random", "pessimal")

#: the named points of a tree's feasible-memory interval
#: (:meth:`repro.analysis.bounds.MemoryBounds.grid`) a
#: :class:`BatchRequest` may ask for instead of an absolute bound.
MEMORY_POLICIES = ("M1", "Mmid", "M2")

#: one tree as its identity columns: ``(parents, weights)``.
TreeColumns = tuple[tuple[int, ...], tuple[int, ...]]


def unit_seed(key: str) -> int:
    """A deterministic 32-bit seed derived from a request's content address.

    Shared by the batch engine's shards and the service's request
    execution so any strategy drawing global randomness behaves
    identically whether a unit runs offline, embedded, or behind a
    server.
    """
    return int(key[:8], 16)


class CanonicalRequest:
    """Mixin: the one buffer-digest content-address path.

    Subclasses (frozen dataclasses) describe themselves through
    :meth:`key_params` (small scalar parameters) and :meth:`key_buffers`
    (integer columns); :meth:`key` hashes both through
    :func:`~repro.datasets.store.cache_key_buffers` and caches the
    digest on the instance, so repeated lookups reuse one
    canonicalisation.

    **Field discipline** (machine-checked by the ``cache-key-discipline``
    lint rule): every dataclass field either feeds the key through
    :meth:`key_params`/:meth:`key_buffers`, or is named in the class's
    ``key_excluded`` frozenset — the explicit record that the field is
    delivery policy or a performance knob that provably does not change
    the result.
    """

    #: fields deliberately outside the content address; subclasses
    #: override with their own set.
    key_excluded: frozenset[str] = frozenset()

    def key_params(self) -> dict[str, Any]:
        """The scalar parameters that determine this request's output."""
        raise NotImplementedError

    def key_buffers(self) -> Mapping[str, Any]:
        """The integer columns that determine this request's output."""
        raise NotImplementedError

    def to_wire(self) -> dict[str, Any]:
        """The payload plus delivery policy (the per-request deadline)."""
        wire = self.to_payload()
        timeout = getattr(self, "timeout", None)
        if timeout is not None:
            wire["timeout"] = timeout
        return wire

    def key(self) -> str:
        """Buffer-digest content address, computed once per instance."""
        cached = self.__dict__.get("_cached_key")
        if cached is None:
            cached = cache_key_buffers(self.key_params(), self.key_buffers())
            object.__setattr__(self, "_cached_key", cached)
        return cached


def _fail(code: str, message: str) -> ProtocolError:
    return ProtocolError(code, message)


def _require_int(value: Any, field: str, *, lo: int, hi: int) -> int:
    if type(value) is not int or not (lo <= value <= hi):
        raise _fail(
            "bad_field", f"{field!r} must be an integer in [{lo}, {hi}], got {value!r}"
        )
    return value


#: the one element type a JSON tree column may hold (``bool`` is not it).
_INT_ONLY = frozenset({int})


def check_tree_columns(parents: Any, weights: Any) -> TreeColumns:
    """Validate one tree's columns for the service; return them as tuples.

    Shared by both encodings: the JSON path hands in lists of plain
    ints, the binary path int64 views of its frame.  The O(n) numpy
    :func:`~repro.core.arraytree.validate_columns` accepts every valid
    tree within the flat engine's budget; a tree it refuses goes to
    :class:`~repro.core.tree.TaskTree`, whose verdict and message are
    the reference — so both encodings refuse the same trees with the
    same ``invalid_tree`` text, and still accept weights beyond int64.
    """
    if len(parents) > MAX_NODES:
        raise _fail(
            "payload_too_large",
            f"tree has {len(parents)} nodes > service limit {MAX_NODES}; "
            "use the offline batch engine for bulk workloads",
        )
    if isinstance(parents, np.ndarray):
        parents_seq, weights_seq = parents.tolist(), weights.tolist()
    else:
        parents_seq, weights_seq = parents, weights
    try:
        validate_columns(parents, weights)
    except TreeError:
        try:
            TaskTree(parents_seq, weights_seq)  # full structural validation
        except TreeError as exc:
            raise _fail("invalid_tree", str(exc)) from exc
    return tuple(parents_seq), tuple(weights_seq)


def _parse_tree(obj: Mapping[str, Any]) -> TreeColumns:
    tree = obj.get("tree")
    if not isinstance(tree, Mapping):
        raise _fail("bad_field", "'tree' must be an object with 'parents' and 'weights'")
    parents = tree.get("parents")
    weights = tree.get("weights")
    for name, seq in (("parents", parents), ("weights", weights)):
        if not isinstance(seq, (list, tuple)) or not _INT_ONLY.issuperset(
            map(type, seq)
        ):
            raise _fail("bad_field", f"'tree.{name}' must be a list of integers")
    return check_tree_columns(parents, weights)


def _parse_algorithm(obj: Mapping[str, Any], *, default: str = "RecExpand") -> str:
    from ..experiments.registry import strategy_names

    algorithm = obj.get("algorithm", default)
    known = strategy_names()
    if algorithm not in known:
        raise _fail(
            "unknown_algorithm", f"unknown algorithm {algorithm!r}; available: {known}"
        )
    return algorithm


def _parse_timeout(obj: Mapping[str, Any]) -> float | None:
    timeout = obj.get("timeout")
    if timeout is None:
        return None
    if type(timeout) not in (int, float) or not (0 < timeout <= 3600):
        raise _fail("bad_field", f"'timeout' must be a number in (0, 3600], got {timeout!r}")
    return float(timeout)


def _parse_trace(obj: Mapping[str, Any]) -> str | None:
    """The optional client trace id: a delivery knob, never part of the key."""
    trace = obj.get("trace")
    if trace is None:
        return None
    if not isinstance(trace, str) or not (1 <= len(trace) <= MAX_TRACE_ID):
        raise _fail(
            "bad_field",
            f"'trace' must be a string of 1..{MAX_TRACE_ID} characters",
        )
    return trace


def _parse_trace_schedule(obj: Mapping[str, Any], kind: str) -> bool:
    flag = obj.get("trace_schedule", False)
    if type(flag) is not bool:
        raise _fail("bad_field", f"'trace_schedule' must be a boolean, got {flag!r}")
    if flag and kind != "solve":
        raise _fail(
            "bad_field", "'trace_schedule' is only supported on 'solve' requests"
        )
    return flag


@dataclass(frozen=True)
class SolveRequest(CanonicalRequest):
    """Run one registered strategy on one tree."""

    parents: tuple[int, ...]
    weights: tuple[int, ...]
    memory: int
    algorithm: str
    timeout: float | None = None
    #: opt into a per-request schedule trace (memory hill-valley curve +
    #: cumulative I/O) in the result; **part of the key** when set, since
    #: it changes the result payload.
    trace_schedule: bool = False
    #: optional client trace id: activates span timing along the request
    #: path.  A delivery knob like ``timeout`` — never part of the key.
    trace: str | None = None

    kind = "solve"
    #: ``timeout``/``trace`` are delivery knobs.
    key_excluded = frozenset({"timeout", "trace"})

    def to_payload(self) -> dict[str, Any]:
        payload = {
            "kind": self.kind,
            "tree": {"parents": list(self.parents), "weights": list(self.weights)},
            "memory": self.memory,
            "algorithm": self.algorithm,
        }
        if self.trace_schedule:
            payload["trace_schedule"] = True
        if self.trace is not None:
            payload["trace"] = self.trace
        return payload

    def key_params(self) -> dict[str, Any]:
        params = {
            "kind": "service-solve",
            "version": ENGINE_VERSION,
            "memory": self.memory,
            "algorithm": self.algorithm,
        }
        if self.trace_schedule:
            params["trace_schedule"] = True
        return params

    def key_buffers(self) -> Mapping[str, Any]:
        return {"parents": self.parents, "weights": self.weights}


@dataclass(frozen=True)
class PagingRequest(CanonicalRequest):
    """Page-granular policy comparison on one strategy's schedule."""

    parents: tuple[int, ...]
    weights: tuple[int, ...]
    memory: int
    algorithm: str
    page_size: int
    policies: tuple[str, ...]
    seed: int
    timeout: float | None = None
    trace: str | None = None

    kind = "paging"
    key_excluded = frozenset({"timeout", "trace"})

    def to_payload(self) -> dict[str, Any]:
        payload = {
            "kind": self.kind,
            "tree": {"parents": list(self.parents), "weights": list(self.weights)},
            "memory": self.memory,
            "algorithm": self.algorithm,
            "page_size": self.page_size,
            "policies": list(self.policies),
            "seed": self.seed,
        }
        if self.trace is not None:
            payload["trace"] = self.trace
        return payload

    def key_params(self) -> dict[str, Any]:
        return {
            "kind": "service-paging",
            "version": ENGINE_VERSION,
            "memory": self.memory,
            "algorithm": self.algorithm,
            "page_size": self.page_size,
            "policies": list(self.policies),
            "seed": self.seed,
        }

    def key_buffers(self) -> Mapping[str, Any]:
        return {"parents": self.parents, "weights": self.weights}


@dataclass(frozen=True)
class ExactRequest(CanonicalRequest):
    """Exact branch-and-bound optimum plus paper-heuristic gaps."""

    parents: tuple[int, ...]
    weights: tuple[int, ...]
    memory: int
    max_states: int
    node_limit: int
    timeout: float | None = None
    trace: str | None = None

    kind = "exact"
    key_excluded = frozenset({"timeout", "trace"})

    def to_payload(self) -> dict[str, Any]:
        payload = {
            "kind": self.kind,
            "tree": {"parents": list(self.parents), "weights": list(self.weights)},
            "memory": self.memory,
            "max_states": self.max_states,
            "node_limit": self.node_limit,
        }
        if self.trace is not None:
            payload["trace"] = self.trace
        return payload

    def key_params(self) -> dict[str, Any]:
        return {
            "kind": "service-exact",
            "version": ENGINE_VERSION,
            "memory": self.memory,
            "max_states": self.max_states,
            "node_limit": self.node_limit,
        }

    def key_buffers(self) -> Mapping[str, Any]:
        return {"parents": self.parents, "weights": self.weights}


@dataclass(frozen=True)
class BatchRequest(CanonicalRequest):
    """Many trees solved under one parameter set, as one work unit.

    The batch engine's shard unit, promoted to a public request type:
    carries its trees as plain identity columns (cheap to pickle across
    the process boundary and exactly the content that is hashed into
    the key) plus everything a worker needs to run it.

    ``memory`` pins one absolute bound for every tree; leaving it
    ``None`` instead resolves the named ``bound`` policy — a point of
    each tree's feasible-memory grid (:data:`MEMORY_POLICIES`) — per
    tree, dropping trees without an I/O regime, exactly like the
    paper's evaluation.

    ``forest`` is deliberately **excluded** from the key: the forest
    path is byte-identical to the per-tree one (the cross-validation
    harnesses enforce it), so a cached result serves both settings.
    """

    trees: tuple[TreeColumns, ...]
    algorithms: tuple[str, ...]
    bound: str = "Mmid"
    memory: int | None = None
    forest: bool = True

    kind = "batch"
    #: ``forest`` is a performance knob whose byte-identical results the
    #: cross-validation harnesses pin.
    key_excluded = frozenset({"forest"})

    def __post_init__(self) -> None:
        if self.memory is None and self.bound not in MEMORY_POLICIES:
            raise _fail(
                "bad_field",
                f"'bound' must be one of {list(MEMORY_POLICIES)}, got {self.bound!r}",
            )

    def tree_columns(self) -> tuple[list[int], list[int], list[int]]:
        """The concatenated ``(offsets, parents, weights)`` identity columns."""
        offsets = [0]
        parents: list[int] = []
        weights: list[int] = []
        for p, w in self.trees:
            parents.extend(p)
            weights.extend(w)
            offsets.append(len(parents))
        return offsets, parents, weights

    def to_payload(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "trees": [
                {"parents": list(p), "weights": list(w)} for p, w in self.trees
            ],
            "algorithms": list(self.algorithms),
            "bound": self.bound,
            "memory": self.memory,
        }

    def key_params(self) -> dict[str, Any]:
        return {
            "kind": "batch",
            "version": ENGINE_VERSION,
            "algorithms": list(self.algorithms),
            "bound": self.bound,
            "memory": self.memory,
        }

    def key_buffers(self) -> Mapping[str, Any]:
        offsets, parents, weights = self.tree_columns()
        return {"offsets": offsets, "parents": parents, "weights": weights}


Request = SolveRequest | PagingRequest | ExactRequest

_KINDS = ("solve", "paging", "exact")


def parse_request(obj: Any, *, trusted_tree: tuple[Any, Any] | None = None) -> Request:
    """Validate a decoded JSON body into a frozen request object.

    The tree is checked by :func:`check_tree_columns` — one vectorised
    pass, with :class:`~repro.core.tree.TaskTree` consulted only for a
    tree that pass refuses — and no tree object is kept: the worker
    that executes the request builds the one it solves on.

    ``trusted_tree`` — a ``(parents, weights)`` tuple pair that already
    passed :func:`check_tree_columns` — skips the tree check; it is how
    the binary frame path, which validates its int64 views directly,
    hands over its columns.  All scalar fields are still validated.

    Raises
    ------
    ProtocolError
        with a stable code from :data:`~repro.api.errors.ERROR_CODES`
        on any violation.
    """
    from ..io.policies import POLICIES

    if not isinstance(obj, Mapping):
        raise _fail("bad_request", "request body must be a JSON object")
    kind = obj.get("kind", "solve")
    if kind not in _KINDS:
        raise _fail("unknown_kind", f"unknown kind {kind!r}; expected one of {_KINDS}")
    if trusted_tree is not None:
        parents, weights = trusted_tree
    else:
        parents, weights = _parse_tree(obj)
    memory = _require_int(obj.get("memory"), "memory", lo=1, hi=10**15)
    timeout = _parse_timeout(obj)
    trace = _parse_trace(obj)
    trace_schedule = _parse_trace_schedule(obj, kind)

    request: Request
    if kind == "solve":
        request = SolveRequest(
            parents=parents,
            weights=weights,
            memory=memory,
            algorithm=_parse_algorithm(obj),
            timeout=timeout,
            trace_schedule=trace_schedule,
            trace=trace,
        )
    elif kind == "paging":
        policies = obj.get("policies", list(DEFAULT_PAGING_POLICIES))
        if (
            not isinstance(policies, (list, tuple))
            or not policies
            or any(not isinstance(p, str) for p in policies)
        ):
            raise _fail("bad_field", "'policies' must be a non-empty list of names")
        unknown = [p for p in policies if p not in POLICIES]
        if unknown:
            raise _fail(
                "unknown_policy",
                f"unknown policies {unknown}; available: {sorted(POLICIES)}",
            )
        request = PagingRequest(
            parents=parents,
            weights=weights,
            memory=memory,
            algorithm=_parse_algorithm(obj),
            page_size=_require_int(obj.get("page_size", 1), "page_size", lo=1, hi=10**9),
            policies=tuple(policies),
            seed=_require_int(obj.get("seed", 0), "seed", lo=0, hi=2**32 - 1),
            timeout=timeout,
            trace=trace,
        )
    else:
        request = ExactRequest(
            parents=parents,
            weights=weights,
            memory=memory,
            max_states=_require_int(
                obj.get("max_states", 2_000_000), "max_states", lo=1, hi=10**9
            ),
            node_limit=_require_int(
                obj.get("node_limit", 24), "node_limit", lo=1, hi=64
            ),
            timeout=timeout,
            trace=trace,
        )
    return request
