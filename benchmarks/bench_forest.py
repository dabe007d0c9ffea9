"""Forest batch kernels vs the per-tree array engine: many-tree throughput.

The workload is the repository's many-small-trees shape: **1 000 mixed-
family trees of 64–512 nodes** (uniform binary and plane trees,
preferential attachment, nested-dissection-shaped, shallow
caterpillars), arriving as raw ``(parents, weights)`` columns — exactly
what the batch engine's shards and the service's requests carry.  Each
tree is solved for

* ``LB`` (max ``wbar``),
* the ``POSTORDERMINMEM`` peak,
* the ``POSTORDERMINIO`` schedule and its predicted I/O volume
  (``V_root``, which Theorem 4 / the FiF invariant makes the schedule's
  true I/O cost) at the mid bound between the two.

Four implementations run the identical workload, asserted
byte-identical on every tree:

* **forest** — one :class:`ArrayForest` + the vectorised forest
  kernels (the new path);
* **per-tree (auto)** — the per-tree path a request without the
  forest layer takes: one ``TaskTree`` per tree, public APIs, which
  run the list cores on the tree's cached CSR lists at every size.
  This pair is what the ``FOREST_SPEEDUP_MIN`` gate compares: it is
  the throughput the forest path actually replaces;
* **per-tree (raw ArrayTree)** — the flat kernels invoked on a
  hand-built ``ArrayTree`` per tree, skipping the ``TaskTree`` hop
  entirely; the strictest baseline, reported, not gated.

A second scenario replays the same 1 000 solves through a
:class:`ResultCache` keyed by :func:`cache_key_buffers` — the cold pass
computes-and-stores, the warm pass must serve every tree from disk.

A third scenario pins the engine question directly: the same
``ArrayForest`` solved twice — once through the per-tree loop cores
(``vectorize=False``) and once through the segmented Liu hill–valley
merge + FiF event sweep — gated by ``FOREST_LIU_FIF_SPEEDUP_MIN``
(default 2x) with results asserted identical field-for-field.

A fourth scenario adds deep members to the same dataset — chains,
caterpillars and random binary trees 50 to 5 000 deep — and times
Liu's solver three ways on one forest: the per-tree loop cores
(``vectorize=False``), the full-depth level sweep (``vectorize=True``)
and the depth-capped sweep the auto path runs (``vectorize=None``),
asserting identical schedules and peaks.  It also times the capped
sweep under neighbouring cost-model constants, which is how the
constants in ``repro.core.forest_kernels`` are re-measured.

Outputs: ``benchmarks/out/forest_speedup.txt``,
``benchmarks/out/forest_liu_fif_speedup.txt`` and
``benchmarks/out/forest_liu_depth_cap.txt`` (human-readable) and
``benchmarks/out/BENCH_forest.json`` (machine-readable; latest numbers
at the top level plus a bounded ``runs`` history per scenario — the CI
forest-perf job publishes it and gates on the speedups).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.algorithms.postorder import postorder_min_io, postorder_min_mem
from repro.core import forest_kernels as fk
from repro.core import kernels
from repro.core.arraytree import ArrayTree
from repro.core.forest import ArrayForest
from repro.core.tree import TaskTree
from repro.datasets.store import ResultCache, cache_key_buffers
from repro.datasets.synth import huge_instance, synth_instance
from repro.api.requests import ENGINE_VERSION

N_TREES = 1_000
NODE_RANGE = (64, 512)
FAMILIES = ("binary", "plane", "attachment", "nd", "caterpillar")
BENCH_SEED = 20170208

#: the acceptance bar: forest trees/sec over the per-tree (auto) path.
#: Shared CI runners time noisily, so the CI job lowers the *gate* via
#: FOREST_SPEEDUP_MIN while still publishing the measured numbers.
MIN_FOREST_SPEEDUP = float(os.environ.get("FOREST_SPEEDUP_MIN", "5.0"))

#: the Liu/FiF loop-vs-vector bar: whole-forest OptMinMem + FiF
#: throughput of the segmented/event-sweep kernels over the per-tree
#: loop cores on the *same* ArrayForest (isolates the new vectorized
#: cores from the construction savings the gate above already covers).
MIN_LIU_FIF_SPEEDUP = float(os.environ.get("FOREST_LIU_FIF_SPEEDUP_MIN", "2.0"))

OUT_DIR = Path(__file__).parent / "out"


def _write_bench_json(update: dict, run_record: dict) -> None:
    """Merge ``update`` into BENCH_forest.json and append ``run_record``.

    The top-level keys always hold the latest numbers; ``runs`` keeps a
    bounded per-scenario history so the perf trajectory stays
    machine-readable across re-runs.
    """
    path = OUT_DIR / "BENCH_forest.json"
    try:
        payload = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        payload = {}
    payload.update(update)
    runs = payload.get("runs", [])
    runs.append(dict(run_record, recorded_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())))
    payload["runs"] = runs[-20:]
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _dataset() -> list[tuple[list[int], list[int]]]:
    """1 000 seeded mixed-family trees as raw columns."""
    rng = np.random.default_rng(BENCH_SEED)
    pairs = []
    for i in range(N_TREES):
        n = int(rng.integers(NODE_RANGE[0], NODE_RANGE[1] + 1))
        family = FAMILIES[i % len(FAMILIES)]
        if family in ("binary", "plane"):
            tree = synth_instance(n, seed=BENCH_SEED + i, shape=family)
            pairs.append((list(tree.parents), list(tree.weights)))
        else:
            # shallow caterpillars: the deep-spine variant is a
            # recursion regression shape, not a throughput workload
            kwargs = {"depth": n // 8} if family == "caterpillar" else {}
            at = huge_instance(family, n, seed=BENCH_SEED + i, **kwargs)
            pairs.append((at._parents.tolist(), at._weights.tolist()))
    return pairs


def _mid(lb: int, peak: int) -> int:
    return max(lb, (lb + peak - 1) // 2)


def _solve_forest(pairs):
    forest = ArrayForest.from_pairs(pairs)
    lbs = np.asarray(fk.forest_lower_bounds(forest))
    _none, storage, _vio = fk.forest_best_postorders_flat(
        forest, None, schedules=False
    )
    roots = forest._roots_local + forest.offsets[:-1]
    peaks = storage[roots]
    mems = np.maximum(lbs, (lbs + peaks - 1) // 2)
    schedule, _storage, vio = fk.forest_best_postorders_flat(forest, mems)
    return forest, lbs, peaks, mems, schedule, vio[roots]


def _solve_per_tree_public(pairs):
    out = []
    for parents, weights in pairs:
        tree = TaskTree(parents, weights)
        lb = tree.min_feasible_memory()
        mm = postorder_min_mem(tree)
        memory = _mid(lb, mm.peak_memory)
        io = postorder_min_io(tree, memory)
        out.append((lb, mm.peak_memory, memory, io.schedule, io.predicted_io))
    return out


def _solve_per_tree_raw(pairs):
    out = []
    for parents, weights in pairs:
        at = ArrayTree(parents, weights)
        lb = at.min_feasible_memory()
        s0, st0, _v0 = kernels.best_postorder(at, None)
        peak = st0[s0[-1]]
        memory = _mid(lb, peak)
        s1, _st1, v1 = kernels.best_postorder(at, memory)
        out.append((lb, peak, memory, s1, v1[s1[-1]]))
    return out


def _best_of(f, repeats=3):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = f()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _assert_identical(pairs, forest_result, per_tree_result):
    forest, lbs, peaks, mems, schedule, vroots = forest_result
    offsets = forest.offsets.tolist()
    for k, (lb, peak, memory, sched, vio) in enumerate(per_tree_result):
        assert lb == lbs[k] and peak == peaks[k] and memory == mems[k], k
        assert vio == vroots[k], k
        a, b = offsets[k], offsets[k + 1]
        assert list(sched) == schedule[a:b].tolist(), k


def _cached_replay(pairs, tmp_root) -> tuple[float, float]:
    """Cold compute-and-store vs warm all-hits, through buffer-digest keys."""
    cache = ResultCache(tmp_root)

    def run() -> int:
        hits = 0
        for parents, weights in pairs:
            key = cache_key_buffers(
                {"kind": "bench-forest-solve", "version": ENGINE_VERSION},
                {"parents": parents, "weights": weights},
            )
            value = cache.get(key)
            if value is not None:
                hits += 1
                continue
            at = ArrayTree(parents, weights)
            lb = at.min_feasible_memory()
            s0, st0, _ = kernels.best_postorder(at, None)
            memory = _mid(lb, st0[s0[-1]])
            s1, _, v1 = kernels.best_postorder(at, memory)
            cache.put(key, {"memory": memory, "io": v1[s1[-1]]})
        return hits

    t0 = time.perf_counter()
    hits = run()
    cold = time.perf_counter() - t0
    assert hits == 0
    t0 = time.perf_counter()
    hits = run()
    warm = time.perf_counter() - t0
    assert hits == len(pairs)
    return cold, warm


def test_forest_speedup(tmp_path, emit):
    pairs = _dataset()

    t_forest, forest_result = _best_of(lambda: _solve_forest(pairs))
    t_auto, auto_result = _best_of(
        lambda: _solve_per_tree_public(pairs), repeats=2
    )
    t_raw, raw_result = _best_of(lambda: _solve_per_tree_raw(pairs))

    _assert_identical(pairs, forest_result, auto_result)
    _assert_identical(pairs, forest_result, raw_result)

    speedup = t_auto / t_forest
    raw_speedup = t_raw / t_forest
    cold, warm = _cached_replay(pairs, tmp_path / "cache")

    rows = [
        ("forest (ArrayForest + forest kernels)", t_forest),
        ("per-tree engine (auto dispatch, list cores)", t_auto),
        ("per-tree engine (raw ArrayTree + kernels)", t_raw),
    ]
    lines = [
        f"{N_TREES} mixed-family trees, {NODE_RANGE[0]}-{NODE_RANGE[1]} "
        f"nodes (families: {', '.join(FAMILIES)})",
        "workload per tree: LB + PostOrderMinMem peak + PostOrderMinIO "
        "schedule & V_root at Mmid",
        "",
        f"{'path':<50} {'seconds':>9} {'trees/s':>9}",
    ]
    for name, t in rows:
        lines.append(f"{name:<50} {t:>8.3f}s {N_TREES / t:>9,.0f}")
    lines += [
        "",
        f"forest speedup vs per-tree engine (auto dispatch): {speedup:.2f}x "
        f"(gate: {MIN_FOREST_SPEEDUP}x)",
        f"forest speedup vs raw-ArrayTree per-tree kernels:  "
        f"{raw_speedup:.2f}x",
        f"buffer-digest cache replay: cold {N_TREES / cold:,.0f} trees/s, "
        f"warm {N_TREES / warm:,.0f} trees/s ({cold / warm:.1f}x)",
    ]
    emit("forest_speedup", "\n".join(lines))

    payload = {
        "n_trees": N_TREES,
        "node_range": list(NODE_RANGE),
        "families": list(FAMILIES),
        "trees_per_sec": {
            "forest": N_TREES / t_forest,
            "per_tree_auto_dispatch": N_TREES / t_auto,
            "per_tree_raw_arraytree": N_TREES / t_raw,
            "cache_cold": N_TREES / cold,
            "cache_warm": N_TREES / warm,
        },
        "speedup": speedup,
        "raw_speedup": raw_speedup,
        "gate": MIN_FOREST_SPEEDUP,
        "byte_identical": True,
    }
    _write_bench_json(
        payload,
        {
            "scenario": "forest_vs_per_tree",
            "speedup": speedup,
            "gate": MIN_FOREST_SPEEDUP,
            "forest_trees_per_sec": N_TREES / t_forest,
        },
    )

    assert speedup >= MIN_FOREST_SPEEDUP, (
        f"forest path only {speedup:.2f}x over the per-tree engine "
        f"({N_TREES / t_forest:,.0f} vs {N_TREES / t_auto:,.0f} trees/s); "
        f"the bar is {MIN_FOREST_SPEEDUP}x"
    )
    assert warm < cold, "a warm buffer-digest cache must beat recomputing"


def _liu_fif_workload(forest, schedules, mems, vectorize):
    """One whole-forest OptMinMem + MinPeaks + FiF pass, engine pinned.

    Drops the forest's Liu memo first, so every repeat times the sweeps
    instead of reading the previous repeat's results.
    """
    forest._liu_cache = None
    peaks = fk.forest_min_peaks(forest, vectorize=vectorize)
    opt = fk.forest_opt_min_mem(forest, vectorize=vectorize)
    sims = fk.forest_simulate_fif(forest, schedules, mems, vectorize=vectorize)
    return peaks, opt, sims


def test_forest_liu_fif_speedup(emit):
    """Gate the vectorized Liu (hill–valley) and FiF (event sweep) cores.

    Same 1 000-tree dataset, same ArrayForest on both sides — only the
    kernel engine differs (``vectorize=False`` per-tree loop cores vs
    the segmented/event-sweep twins), so the measured ratio is purely
    the new loop-free cores.  FiF replays each tree's best postorder at
    the mid memory bound (evictions actually happen) and results are
    asserted identical field-for-field.
    """
    pairs = _dataset()
    forest = ArrayForest.from_pairs(pairs)
    lbs = fk.forest_lower_bounds(forest)
    per_tree = fk.forest_best_postorders(forest, None)
    schedules = [s for s, _st, _v in per_tree]
    peaks = [st[s[-1]] for s, st, _v in per_tree]
    mems = [_mid(lb, pk) for lb, pk in zip(lbs, peaks)]

    t_loop, loop_result = _best_of(
        lambda: _liu_fif_workload(forest, schedules, mems, False)
    )
    t_vec, vec_result = _best_of(
        lambda: _liu_fif_workload(forest, schedules, mems, True), repeats=5
    )
    assert loop_result == vec_result, "loop and vector cores must agree"

    speedup = t_loop / t_vec
    lines = [
        f"{N_TREES} mixed-family trees, {NODE_RANGE[0]}-{NODE_RANGE[1]} "
        "nodes, one shared ArrayForest",
        "workload per pass: forest_min_peaks + forest_opt_min_mem + "
        "forest_simulate_fif(best postorder @ Mmid)",
        "",
        f"{'engine':<50} {'seconds':>9} {'trees/s':>9}",
        f"{'per-tree loop cores (vectorize=False)':<50} "
        f"{t_loop:>8.3f}s {N_TREES / t_loop:>9,.0f}",
        f"{'segmented Liu + FiF event sweep (vectorize=True)':<50} "
        f"{t_vec:>8.3f}s {N_TREES / t_vec:>9,.0f}",
        "",
        f"OptMinMem+FiF vector speedup: {speedup:.2f}x "
        f"(gate: {MIN_LIU_FIF_SPEEDUP}x)",
    ]
    emit("forest_liu_fif_speedup", "\n".join(lines))

    _write_bench_json(
        {
            "liu_fif": {
                "trees_per_sec": {
                    "loop_cores": N_TREES / t_loop,
                    "vectorized": N_TREES / t_vec,
                },
                "speedup": speedup,
                "gate": MIN_LIU_FIF_SPEEDUP,
                "byte_identical": True,
            }
        },
        {
            "scenario": "liu_fif_loop_vs_vector",
            "speedup": speedup,
            "gate": MIN_LIU_FIF_SPEEDUP,
            "vectorized_trees_per_sec": N_TREES / t_vec,
        },
    )

    assert speedup >= MIN_LIU_FIF_SPEEDUP, (
        f"vectorized Liu/FiF cores only {speedup:.2f}x over the loop "
        f"cores ({N_TREES / t_vec:,.0f} vs {N_TREES / t_loop:,.0f} "
        f"trees/s); the bar is {MIN_LIU_FIF_SPEEDUP}x"
    )


#: deep members added to the dataset by the depth-cap scenario:
#: ``(family, nodes, depth)``; random binary trees get their depth from
#: their size (about 50, 120 and 230 deep).
DEEP_MEMBERS = (
    ("chain", 51, 50),
    ("chain", 501, 500),
    ("chain", 5001, 5000),
    ("caterpillar", 400, 200),
    ("caterpillar", 4000, 2000),
    ("binary", 300, None),
    ("binary", 1500, None),
    ("binary", 5000, None),
)

#: neighbouring cost-model constants (level µs, tail-node µs) the
#: scenario also times, to show where the optimum sits
COST_MODELS = ((65.0, 1.0), (65.0, 0.65), (65.0, 0.5), (65.0, 0.38), (65.0, 0.26))


def _deep_dataset():
    rng = np.random.default_rng(BENCH_SEED + 1)
    pairs = list(_dataset())
    for i, (family, n, depth) in enumerate(DEEP_MEMBERS):
        if family == "chain":
            weights = rng.integers(1, 100, size=n).tolist()
            pairs.append((list(range(-1, n - 1)), weights))
        elif family == "caterpillar":
            at = huge_instance(family, n, seed=BENCH_SEED + i, depth=depth)
            pairs.append((at._parents.tolist(), at._weights.tolist()))
        else:
            tree = synth_instance(n, seed=BENCH_SEED + i, shape=family)
            pairs.append((list(tree.parents), list(tree.weights)))
    return pairs


def _opt_min_mem(forest, vectorize):
    forest._liu_cache = None  # time the sweep, not the memo
    return fk.forest_opt_min_mem(forest, vectorize=vectorize)


def test_liu_depth_cap(emit):
    """The depth-capped Liu sweep against the full sweep and the loop."""
    pairs = _deep_dataset()
    forest = ArrayForest.from_pairs(pairs)
    counts = np.bincount(forest._depths())
    cap = fk._liu_cap(counts)
    n_trees = forest.n_trees

    t_loop, loop_result = _best_of(lambda: _opt_min_mem(forest, False))
    t_full, full_result = _best_of(lambda: _opt_min_mem(forest, True))
    t_cap, cap_result = _best_of(lambda: _opt_min_mem(forest, None), repeats=5)
    assert loop_result == full_result == cap_result, "Liu engines must agree"

    models = []
    for level_us, node_us in COST_MODELS:
        c = fk._liu_cap(counts, level_us, node_us)
        t, _ = _best_of(lambda: fk._liu_vector(forest, schedules=True, cap=c))
        models.append((level_us, node_us, c, t))

    tail_share = float(counts[cap + 1 :].sum()) / forest.total_nodes
    lines = [
        f"{n_trees} trees: the {N_TREES}-tree dataset plus "
        f"{len(DEEP_MEMBERS)} deep members (chains, caterpillars, random "
        f"binary trees; max depth {len(counts) - 1})",
        "workload per pass: forest_opt_min_mem (schedules + peaks), memo "
        "dropped",
        "",
        f"{'engine':<50} {'seconds':>9} {'trees/s':>9}",
        f"{'per-tree loop cores (vectorize=False)':<50} "
        f"{t_loop:>8.3f}s {n_trees / t_loop:>9,.0f}",
        f"{'full-depth level sweep (vectorize=True)':<50} "
        f"{t_full:>8.3f}s {n_trees / t_full:>9,.0f}",
        f"{'depth-capped sweep (vectorize=None)':<50} "
        f"{t_cap:>8.3f}s {n_trees / t_cap:>9,.0f}",
        "",
        f"cap {cap}: {cap + 1} level passes instead of {len(counts)}, "
        f"{tail_share:.1%} of nodes on the scalar tail",
        f"capped sweep vs full sweep: {t_full / t_cap:.2f}x; "
        f"vs loop cores: {t_loop / t_cap:.2f}x",
        "",
        "capped sweep under neighbouring cost models:",
        f"{'level us':>9} {'node us':>8} {'nodes/level':>12} {'cap':>5} "
        f"{'seconds':>9}",
    ]
    for level_us, node_us, c, t in models:
        lines.append(
            f"{level_us:>9.1f} {node_us:>8.2f} {level_us / node_us:>12.0f} "
            f"{c:>5} {t:>8.3f}s"
        )
    emit("forest_liu_depth_cap", "\n".join(lines))

    _write_bench_json(
        {
            "liu_depth_cap": {
                "n_trees": n_trees,
                "max_depth": len(counts) - 1,
                "cap": cap,
                "tail_share": tail_share,
                "trees_per_sec": {
                    "loop_cores": n_trees / t_loop,
                    "full_sweep": n_trees / t_full,
                    "capped_sweep": n_trees / t_cap,
                },
                "byte_identical": True,
            }
        },
        {
            "scenario": "liu_depth_cap",
            "cap": cap,
            "capped_vs_full": t_full / t_cap,
            "capped_vs_loop": t_loop / t_cap,
            "capped_trees_per_sec": n_trees / t_cap,
        },
    )
