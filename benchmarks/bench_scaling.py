"""Runtime scaling of each strategy with tree size, plus micro-benchmarks
of the two performance-critical kernels (Liu solve, FiF simulation).

These are the only benches where the *time* is the result; the figure
benches time whole-figure regeneration as a side effect.
"""

from __future__ import annotations

import pytest

from repro.algorithms.liu import min_peak_memory, opt_min_mem
from repro.analysis.bounds import memory_bounds
from repro.core.expansion import ExpansionTree
from repro.core.kernels import liu_fill
from repro.core.simulator import simulate_fif
from repro.datasets.synth import synth_instance
from repro.experiments.registry import get_algorithm

SIZES = (300, 1000, 3000)


def _instance(n):
    # A fixed seed per size with a guaranteed I/O regime.
    for seed in range(100):
        tree = synth_instance(n, seed=seed)
        bounds = memory_bounds(tree)
        if bounds.has_io_regime:
            return tree, bounds.mid
    raise AssertionError("no instance with I/O regime found")


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize(
    "algorithm", ("PostOrderMinIO", "OptMinMem", "RecExpand", "FullRecExpand")
)
def test_strategy_scaling(benchmark, algorithm, n):
    tree, memory = _instance(n)
    strategy = get_algorithm(algorithm)
    benchmark.group = f"n={n}"
    traversal = benchmark(strategy, tree, memory)
    assert traversal.io_volume >= 0


@pytest.mark.parametrize("n", SIZES)
def test_liu_solver_kernel(benchmark, n):
    tree, _ = _instance(n)
    benchmark.group = "liu-solve"

    benchmark(opt_min_mem, tree)


@pytest.mark.parametrize("n", SIZES)
def test_fif_simulation_kernel(benchmark, n):
    tree, memory = _instance(n)
    schedule, _peak = opt_min_mem(tree)
    benchmark.group = "fif-simulate"
    benchmark(simulate_fif, tree, schedule, memory)


def test_incremental_resolve_vs_fresh(benchmark):
    """The RecExpand inner loop depends on path-local re-solves being much
    cheaper than full re-solves; quantify the speedup.

    Times the re-solve RecExpand runs after an expansion: one
    ``liu_fill(keep=True)`` over the path from the changed node to the
    root, on a store that keeps every other node's segments.
    """
    tree, memory = _instance(3000)
    xt = ExpansionTree(tree)
    segs: list = [None] * xt.n
    liu_fill(xt.weights, xt.start, xt.cindex, tree.bottom_up(), segs, keep=True)
    # Expand a deep node once so there is something to re-solve.
    leaf = max(range(tree.n), key=lambda v: len(tree.path_to_root(v)))
    victim = tree.path_to_root(leaf)[1]
    xt.expand(victim, max(1, xt.weights[victim] // 2))  # a splice
    segs += (None, None)
    path = [xt.parents[victim]]  # the new residual node, then up
    while path[-1] != xt.root:
        path.append(xt.parents[path[-1]])

    benchmark.group = "incremental"

    def incremental():
        liu_fill(xt.weights, xt.start, xt.cindex, path, segs, keep=True)
        return segs[xt.root][0][0]

    peak = benchmark(incremental)
    assert peak == min_peak_memory(xt)
