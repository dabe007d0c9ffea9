"""Parallel batch experiment engine with content-addressed result caching.

The serial runner (:mod:`repro.experiments.runner`) regenerates every
figure by walking its instance list one tree at a time.  This module
turns that walk into a **batch of independent work units**:

* every figure's instance list is cut into contiguous *shards* of at
  most ``shard_size`` trees (shard boundaries depend only on the data,
  never on the worker count, so cache keys and counters are stable
  across ``--jobs`` settings);
* every counterexample construction (Figures 2a–2c, 6, 7) is one unit;
* units execute either in-process (``jobs=1``) or across worker
  processes via :class:`concurrent.futures.ProcessPoolExecutor`, each
  with a deterministic per-shard seed derived from the unit key;
* per-shard outputs are merged back — in shard order, so instance order
  matches the serial runner exactly — into the same
  :class:`~repro.experiments.runner.ExperimentReport` summaries.

Layered underneath is the :class:`~repro.datasets.store.ResultCache`:
each unit is keyed by a SHA-256 digest of its inputs (tree structure,
memory bound, algorithm list, scale — see
:func:`repro.datasets.store.cache_key`), so a warm re-run only
recomputes shards whose inputs changed and the report carries hit/miss
counters as provenance.

Apart from the timing fields (``seconds``, ``elapsed_seconds``,
``started_at``) and the ``batch`` provenance block, the report produced
here is byte-identical to the serial runner's at any ``jobs`` value.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from ..analysis.metrics import performance
from ..analysis.profiles import build_profile
from ..api.execution import execute_batch
from ..api.requests import (
    BatchRequest,
    CanonicalRequest,
    ENGINE_VERSION,
    unit_seed,
)
from ..core.traversal import validate
from ..core.tree import TaskTree
from ..datasets import instances as paper_instances
from ..datasets.store import ResultCache
from .datasets import Scale
from .figures import FIGURE_SPECS, FigureResult, build_dataset
from .registry import ALGORITHMS, get_algorithm

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .runner import ExperimentReport

__all__ = [
    "BatchRequest",
    "BatchStats",
    "FigureShard",
    "CounterexampleUnit",
    "DEFAULT_SHARD_SIZE",
    "ENGINE_VERSION",
    "unit_seed",
    "shard_figure",
    "counterexample_units",
    "run_shard",
    "run_counterexample_unit",
    "merge_shards",
    "run_batch_figures",
    "run_batch_counterexamples",
    "run_batch_report",
]

#: maximum number of trees per figure shard.  Fixed (instead of derived
#: from the worker count) so that shard boundaries — and therefore cache
#: keys and hit/miss counters — are identical at every ``--jobs`` value.
DEFAULT_SHARD_SIZE = 8

# Backwards-compatible alias; the public constant now lives in
# :mod:`repro.api.requests` (one engine-version salt for every surface).
_ENGINE_VERSION = ENGINE_VERSION


@dataclass
class BatchStats:
    """Execution provenance for one batch run (the report's ``batch`` block).

    Everything here is deterministic given the datasets and the cache
    state — notably *independent of the worker count* — so serial and
    parallel runs of the same inputs produce identical stats.
    """

    shard_size: int = DEFAULT_SHARD_SIZE
    units_total: int = 0
    units_computed: int = 0
    cache_enabled: bool = False
    cache_hits: int = 0
    cache_misses: int = 0

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form for JSON serialisation inside the report."""
        return {
            "shard_size": self.shard_size,
            "units_total": self.units_total,
            "units_computed": self.units_computed,
            "cache": {
                "enabled": self.cache_enabled,
                "hits": self.cache_hits,
                "misses": self.cache_misses,
            },
        }


@dataclass(frozen=True)
class FigureShard(BatchRequest):
    """One contiguous slice of a figure's instance list.

    A :class:`~repro.api.requests.BatchRequest` (trees as plain
    ``(parents, weights)`` tuples — cheap to pickle across the process
    boundary and exactly the content that is hashed into the cache key,
    with the ``bound`` memory policy resolved per tree) plus the figure
    book-keeping a worker needs to run it without touching
    figure-specific code.  The content address keeps the historical
    ``figure-shard`` derivation — same buffer digest, computed once per
    instance — so caches written before the API unification stay warm.
    """

    fig_id: str = ""
    scale: str = ""
    index: int = 0  # position within the figure (merge order)
    seed: int = 0  # deterministic per-shard seed (derived from the key)

    #: ``index`` is merge-order book-keeping (identical content at two
    #: positions is the same result); ``seed`` is *derived from* the key,
    #: so hashing it in would be circular.
    key_excluded = frozenset({"index", "seed"})

    def key_params(self) -> dict[str, Any]:
        params = {
            "kind": "figure-shard",
            "version": _ENGINE_VERSION,
            "fig_id": self.fig_id,
            "scale": self.scale,
            "bound": self.bound,
            "algorithms": list(self.algorithms),
        }
        # The figure pipeline never pins an absolute memory (the bound
        # policy resolves per tree), so the historical key omits it —
        # but a caller who *does* pin one changes the output and must
        # change the key, or a stale cache entry computed under a
        # different bound would be served back as a hit.
        if self.memory is not None:
            params["memory"] = self.memory
        return params


@dataclass(frozen=True)
class CounterexampleUnit(CanonicalRequest):
    """One hand-crafted paper instance (Figures 2a–2c, 6, 7) as a work unit.

    ``witness_io`` is part of the key because it is copied verbatim
    into the cached row: correcting a witness value in
    :mod:`repro.datasets.instances` must invalidate the entry.
    """

    name: str
    parents: tuple[int, ...]
    weights: tuple[int, ...]
    memory: int
    witness_io: int | None
    algorithms: tuple[str, ...]

    def key_params(self) -> dict[str, Any]:
        return {
            "kind": "counterexample",
            "version": _ENGINE_VERSION,
            "name": self.name,
            "memory": self.memory,
            "witness_io": self.witness_io,
            "algorithms": list(self.algorithms),
        }

    def key_buffers(self) -> Mapping[str, Any]:
        return {"parents": self.parents, "weights": self.weights}


_shard_seed = unit_seed  # historical name


def shard_figure(
    fig_id: str,
    scale: Scale | str,
    *,
    shard_size: int = DEFAULT_SHARD_SIZE,
    forest: bool = True,
) -> list[FigureShard]:
    """Cut one figure's instance list into contiguous shards.

    The dataset is built once (deterministically, from the fixed dataset
    seed) and sliced in order; concatenating shard outputs in ``index``
    order therefore reproduces the serial instance order exactly.
    """
    spec = FIGURE_SPECS[fig_id]
    scale_name = scale if isinstance(scale, str) else scale.name
    trees = build_dataset(spec.dataset, scale)
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    shards: list[FigureShard] = []
    for index, start in enumerate(range(0, len(trees), shard_size)):
        chunk = trees[start : start + shard_size]
        shard = FigureShard(
            fig_id=fig_id,
            scale=scale_name,
            bound=spec.bound,
            algorithms=spec.algorithms,
            index=index,
            trees=tuple((t.parents, t.weights) for t in chunk),
            seed=0,
            forest=forest,
        )
        # The seed is derived from the content address (which excludes the
        # seed field itself), so it is stable across runs and distinct
        # across shards with different inputs.  Carrying the key over to
        # the reseeded instance keeps it one canonicalisation per shard.
        key = shard.key()
        shard = dataclasses.replace(shard, seed=_shard_seed(key))
        object.__setattr__(shard, "_cached_key", key)
        shards.append(shard)
    return shards


def counterexample_units(
    *,
    fig2a_extensions: Sequence[int] = (0, 2, 4),
    fig2c_ks: Sequence[int] = (1, 2, 4, 8),
) -> list[CounterexampleUnit]:
    """Materialise every counterexample instance as an independent unit."""
    algorithms = tuple(sorted(ALGORITHMS))
    named: list[tuple[str, paper_instances.PaperInstance]] = []
    for ext in fig2a_extensions:
        named.append((f"fig2a_ext{ext}", paper_instances.figure_2a(extensions=ext)))
    named.append(("fig2b", paper_instances.figure_2b()))
    for k in fig2c_ks:
        named.append((f"fig2c_k{k}", paper_instances.figure_2c(k)))
    named.append(("fig6", paper_instances.figure_6()))
    named.append(("fig7", paper_instances.figure_7()))
    return [
        CounterexampleUnit(
            name=name,
            parents=inst.tree.parents,
            weights=inst.tree.weights,
            memory=inst.memory,
            witness_io=inst.witness_io,
            algorithms=algorithms,
        )
        for name, inst in named
    ]


def run_shard(shard: FigureShard) -> dict[str, Any]:
    """Execute one figure shard (this is the worker entry point).

    A thin timing-and-seeding wrapper over the shared
    :func:`repro.api.execution.execute_batch` core, which rebuilds the
    shard's trees, resolves the ``bound`` memory policy per tree
    (applying the I/O-regime filter), runs and validates every
    algorithm — through the forest kernels when possible, with a
    byte-identical per-tree fallback — and returns the raw per-instance
    columns as a JSON-friendly payload, exactly what
    :func:`merge_shards` and the cache store.

    The process-global RNGs are seeded with the shard's content-derived
    seed first, so any strategy that draws global randomness (none of
    the paper's do, but :func:`~repro.experiments.registry.register_algorithm`
    admits such strategies) behaves identically regardless of which
    worker the shard lands on or how many workers there are.
    """
    import random

    import numpy as np

    random.seed(shard.seed)
    np.random.seed(shard.seed)
    t0 = time.perf_counter()
    payload = execute_batch(shard)
    payload["seconds"] = time.perf_counter() - t0
    return payload


def run_counterexample_unit(unit: CounterexampleUnit) -> dict[str, Any]:
    """Execute one counterexample unit (worker entry point).

    Returns the same row shape as the serial runner's per-instance dict:
    node count, memory bound, paper witness, and per-algorithm I/O.
    """
    tree = TaskTree(unit.parents, unit.weights)
    row: dict[str, Any] = {
        "n": tree.n,
        "memory": unit.memory,
        "witness_io": unit.witness_io,
        "io": {},
    }
    for name in unit.algorithms:
        traversal = get_algorithm(name)(tree, unit.memory)
        validate(tree, traversal, unit.memory)
        row["io"][name] = traversal.io_volume
    return row


def merge_shards(
    fig_id: str,
    shards: Sequence[FigureShard],
    payloads: Sequence[Mapping[str, Any]],
) -> FigureResult:
    """Reassemble shard payloads into the figure's :class:`FigureResult`.

    Payloads must be given in shard ``index`` order; columns are simply
    concatenated, so the merged result is bit-for-bit the serial
    ``run_comparison`` output.
    """
    if len(shards) != len(payloads):
        raise ValueError(
            f"{fig_id}: {len(shards)} shards but {len(payloads)} payloads"
        )
    spec = FIGURE_SPECS[fig_id]
    algorithms = shards[0].algorithms if shards else spec.algorithms
    io: dict[str, list[int]] = {a: [] for a in algorithms}
    memories: list[int] = []
    sizes: list[int] = []
    for shard, payload in sorted(
        zip(shards, payloads), key=lambda pair: pair[0].index
    ):
        memories.extend(payload["memories"])
        sizes.extend(payload["sizes"])
        for a in algorithms:
            io[a].extend(payload["io"][a])
    if not memories:
        raise ValueError(f"{spec.name}: no instance has an I/O regime")
    perfs = {
        a: [performance(m, k) for m, k in zip(memories, io[a])] for a in algorithms
    }
    return FigureResult(
        name=spec.name,
        bound=spec.bound,
        algorithms=tuple(algorithms),
        profile=build_profile(perfs),
        io_volumes={a: tuple(v) for a, v in io.items()},
        memories=tuple(memories),
        instance_sizes=tuple(sizes),
    )


def _execute_units(
    units: Sequence[Any],
    worker: Callable[[Any], dict[str, Any]],
    *,
    jobs: int,
    cache: ResultCache | None,
    stats: BatchStats,
    progress: Callable[[str], None] | None = None,
) -> list[dict[str, Any]]:
    """Run work units through the cache, then in-process or in a pool.

    Cache lookups happen in the parent (workers stay stateless); only
    misses are executed, and their results are written back *without*
    the ``seconds`` timing field — a cache hit contributes 0.0 compute
    time, so a fully warm figure reports ``seconds == 0.0``.  Results
    are returned in the order of ``units`` regardless of completion
    order.
    """
    from ..obs.metrics import get_registry

    registry = get_registry()
    units_counter = registry.counter(
        "batch_units_total", "batch-engine work units, by how they resolved"
    )
    if cache is not None and getattr(cache, "_hit_counter", None) is None:
        cache.bind_registry(registry)

    results: list[dict[str, Any] | None] = [None] * len(units)
    pending: list[int] = []
    for i, unit in enumerate(units):
        stats.units_total += 1
        if cache is not None:
            hit = cache.get(unit.key())
            if hit is not None:
                results[i] = hit
                units_counter.labels(source="cache").inc()
                continue
        pending.append(i)

    if cache is not None:
        stats.cache_hits = cache.hits
        stats.cache_misses = cache.misses

    done_here = 0

    def _record(i: int, result: dict[str, Any]) -> None:
        nonlocal done_here
        results[i] = result
        stats.units_computed += 1
        units_counter.labels(source="computed").inc()
        done_here += 1
        if cache is not None:
            cache.put(
                units[i].key(), {k: v for k, v in result.items() if k != "seconds"}
            )
        if progress is not None:
            progress(f"computed unit {done_here}/{len(pending)}")

    if jobs <= 1 or len(pending) <= 1:
        for i in pending:
            _record(i, worker(units[i]))
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {pool.submit(worker, units[i]): i for i in pending}
            remaining = set(futures)
            while remaining:
                done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in done:
                    _record(futures[future], future.result())
    return [r for r in results if r is not None]


def run_batch_counterexamples(
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    stats: BatchStats | None = None,
    fig2a_extensions: Sequence[int] = (0, 2, 4),
    fig2c_ks: Sequence[int] = (1, 2, 4, 8),
) -> dict[str, Any]:
    """Replay every counterexample through the batch engine.

    Output is identical to
    :func:`repro.experiments.runner.run_counterexamples`.
    """
    stats = stats if stats is not None else BatchStats(cache_enabled=cache is not None)
    units = counterexample_units(
        fig2a_extensions=fig2a_extensions, fig2c_ks=fig2c_ks
    )
    rows = _execute_units(
        units, run_counterexample_unit, jobs=jobs, cache=cache, stats=stats
    )
    return {unit.name: row for unit, row in zip(units, rows)}


def run_batch_figures(
    scale: Scale | str = "small",
    *,
    figure_ids: Sequence[str] | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
    stats: BatchStats | None = None,
    shard_size: int = DEFAULT_SHARD_SIZE,
    forest: bool = True,
    progress: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """Regenerate the requested figures through the sharded engine.

    All figures' shards are pooled into one unit list (better load
    balance than running figures back-to-back), executed, and merged
    per figure.  Output matches
    :func:`repro.experiments.runner.run_figures` except that each
    figure's ``seconds`` field sums worker compute time over its shards
    (0.0 on a fully warm cache) instead of parent wall-clock.
    """
    from .runner import figure_summary  # cycle: runner imports this module

    stats = stats if stats is not None else BatchStats(cache_enabled=cache is not None)
    stats.shard_size = shard_size
    # Falsy (None or empty) means "all", exactly like the serial runner's
    # ``figure_ids or sorted(FIGURES)``.
    ids = list(figure_ids) if figure_ids else sorted(FIGURE_SPECS)
    by_figure: dict[str, list[FigureShard]] = {
        fid: shard_figure(fid, scale, shard_size=shard_size, forest=forest)
        for fid in ids
    }
    flat: list[FigureShard] = [s for fid in ids for s in by_figure[fid]]
    payloads = _execute_units(
        flat, run_shard, jobs=jobs, cache=cache, stats=stats, progress=progress
    )
    by_unit = dict(zip(flat, payloads))

    out: dict[str, Any] = {}
    for fid in ids:
        shards = by_figure[fid]
        shard_payloads = [by_unit[s] for s in shards]
        result = merge_shards(fid, shards, shard_payloads)
        summary = figure_summary(result)
        # Cached payloads carry no "seconds" (a hit costs no compute).
        summary["seconds"] = sum(p.get("seconds", 0.0) for p in shard_payloads)
        try:
            summary["differing"] = figure_summary(result.differing_subset())
        except ValueError:
            summary["differing"] = None
        out[fid] = summary
        if progress is not None:
            progress(
                f"{fid}: {summary['instances']} instances over "
                f"{len(shards)} shards in {summary['seconds']:.1f}s"
            )
    return out


def run_batch_report(
    scale: Scale | str = "small",
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    shard_size: int = DEFAULT_SHARD_SIZE,
    forest: bool = True,
    progress: Callable[[str], None] | None = None,
) -> "ExperimentReport":
    """The whole evaluation through the batch engine.

    Equivalent to :func:`repro.experiments.runner.run_all` — same
    figures, same counterexamples, same summary values — with the
    ``batch`` provenance block (shard and cache counters) filled in.
    ``forest`` selects whether shards solve through the forest layer;
    results are identical either way, which is why it is not part of
    the cache keys.
    Returns an :class:`~repro.experiments.runner.ExperimentReport`.
    """
    from .runner import ExperimentReport

    stats = BatchStats(cache_enabled=cache is not None, shard_size=shard_size)
    report = ExperimentReport(
        scale=scale if isinstance(scale, str) else scale.name,
        started_at=time.time(),
    )
    t0 = time.perf_counter()
    report.counterexamples = run_batch_counterexamples(
        jobs=jobs, cache=cache, stats=stats
    )
    if progress is not None:
        progress("counterexamples done")
    report.figures = run_batch_figures(
        scale,
        jobs=jobs,
        cache=cache,
        stats=stats,
        shard_size=shard_size,
        forest=forest,
        progress=progress,
    )
    if cache is not None:
        stats.cache_hits = cache.hits
        stats.cache_misses = cache.misses
    report.batch = stats.to_dict()
    report.elapsed_seconds = time.perf_counter() - t0
    return report
