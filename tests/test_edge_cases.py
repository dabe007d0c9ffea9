"""Edge cases across the whole stack: degenerate trees, boundary memory
values, extreme weights — the inputs that break off-by-one reasoning."""

from __future__ import annotations

import pytest
from hypothesis import given
import hypothesis.strategies as st

from repro.algorithms.liu import opt_min_mem
from repro.algorithms.postorder import postorder_min_io, postorder_min_mem
from repro.algorithms.rec_expand import full_rec_expand, rec_expand
from repro.analysis.bounds import memory_bounds
from repro.core.kernels import liu_segments
from repro.core.simulator import fif_io_volume, fif_traversal, simulate_fif
from repro.core.traversal import validate
from repro.core.tree import TaskTree, chain_tree, star_tree
from repro.experiments.registry import ALGORITHMS


class TestSingleNode:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_every_strategy_handles_single_node(self, name):
        tree = TaskTree([-1], [5])
        traversal = ALGORITHMS[name](tree, 5)
        validate(tree, traversal, 5)
        assert traversal.io_volume == 0

    def test_zero_weight_single_node(self):
        tree = TaskTree([-1], [0])
        schedule, peak = opt_min_mem(tree)
        assert peak == 0
        # Even M = 0 works: there is nothing to store.
        assert fif_io_volume(tree, schedule, 0) == 0


class TestZeroWeights:
    def test_zero_weight_chain(self):
        tree = chain_tree([0, 0, 0, 0])
        schedule, peak = opt_min_mem(tree)
        assert peak == 0
        validate(tree, fif_traversal(tree, schedule, 0), 0)

    def test_zero_weight_interior_node(self):
        # A free "synchronisation" task between two heavy ones.
        tree = TaskTree([-1, 0, 1], [4, 0, 4])
        schedule, peak = opt_min_mem(tree)
        assert peak == 4
        res = postorder_min_io(tree, 4)
        assert res.predicted_io == 0

    def test_zero_weight_leaves_under_star(self):
        tree = star_tree(3, [0, 0, 0])
        _, peak = opt_min_mem(tree)
        assert peak == 3  # the root's own output

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_strategies_with_mixed_zero_weights(self, name):
        tree = TaskTree([-1, 0, 0, 1, 1, 2], [2, 0, 3, 4, 0, 5])
        memory = memory_bounds(tree).peak_incore
        traversal = ALGORITHMS[name](tree, memory)
        validate(tree, traversal, memory)


class TestBoundaryMemory:
    def test_memory_exactly_lb(self):
        tree = TaskTree([-1, 0, 0, 1, 2], [1, 2, 2, 6, 6])
        lb = tree.min_feasible_memory()
        for name, strategy in ALGORITHMS.items():
            traversal = strategy(tree, lb)
            validate(tree, traversal, lb)

    def test_memory_exactly_peak_no_io(self):
        tree = TaskTree([-1, 0, 0, 1, 2], [1, 2, 2, 6, 6])
        peak = memory_bounds(tree).peak_incore
        for name, strategy in ALGORITHMS.items():
            assert strategy(tree, peak).io_volume == 0, name

    def test_one_below_peak_forces_io_for_optminmem(self):
        tree = TaskTree([-1, 0, 0, 1, 2], [1, 2, 2, 6, 6])
        bounds = memory_bounds(tree)
        if bounds.has_io_regime:
            schedule, _ = opt_min_mem(tree)
            assert fif_io_volume(tree, schedule, bounds.m2) > 0


class TestExtremeWeights:
    def test_huge_weights_no_overflow(self):
        big = 10**15
        tree = TaskTree([-1, 0, 0], [big, big, big])
        _, peak = opt_min_mem(tree)
        assert peak == 2 * big
        res = simulate_fif(tree, [1, 2, 0], 2 * big)
        assert res.io_volume == 0

    def test_single_heavy_among_light(self):
        tree = star_tree(1, [10**9, 1, 1, 1])
        bounds = memory_bounds(tree)
        assert bounds.lb == 10**9 + 3

    @given(st.integers(1, 10**12))
    def test_two_node_tree_any_weight(self, w):
        tree = chain_tree([1, w])
        schedule, peak = opt_min_mem(tree)
        assert peak == w
        assert fif_io_volume(tree, schedule, w) == 0


class TestDegenerateShapes:
    def test_wide_star_tight_memory(self):
        tree = star_tree(1, [1] * 50)
        lb = tree.min_feasible_memory()  # 50: all leaves at the root step
        for name in ("OptMinMem", "PostOrderMinIO", "RecExpand"):
            traversal = ALGORITHMS[name](tree, lb)
            validate(tree, traversal, lb)
            assert traversal.io_volume == 0  # nothing helps or hurts

    def test_bamboo_with_alternating_weights(self):
        weights = [1 if i % 2 else 7 for i in range(60)]
        tree = chain_tree(weights)
        bounds = memory_bounds(tree)
        # A chain never needs I/O above LB.
        assert bounds.lb == bounds.peak_incore

    def test_broom(self):
        # A chain ending in a star: classic multifrontal silhouette.
        parents = [-1] + list(range(9)) + [9] * 5
        weights = [2] * 10 + [3] * 5
        tree = TaskTree(parents, weights)
        bounds = memory_bounds(tree)
        for name, strategy in ALGORITHMS.items():
            traversal = strategy(tree, bounds.peak_incore)
            validate(tree, traversal, bounds.peak_incore)

    def test_two_level_fanout_of_fanouts(self):
        parents = [-1, 0, 0, 0] + [1] * 3 + [2] * 3 + [3] * 3
        tree = TaskTree(parents, [1] * len(parents))
        bounds = memory_bounds(tree)
        po = postorder_min_io(tree, bounds.lb)
        assert po.predicted_io >= 0
        validate(tree, fif_traversal(tree, po.schedule, bounds.lb), bounds.lb)


class TestLiuSegmentsEdge:
    def test_equal_weights_everywhere(self):
        tree = star_tree(5, [5, 5, 5])
        segs = liu_segments(tree)
        assert segs[-1][1] == 5  # the last valley is the root's output

    def test_segments_of_zero_weight_subtree(self):
        tree = chain_tree([0, 0])
        segs = liu_segments(tree)
        assert len(segs) == 1
        assert segs[0][0] == 0  # the only hill

    def test_postorder_minmem_equals_liu_on_chains(self):
        tree = chain_tree([3, 1, 4, 1, 5])
        assert postorder_min_mem(tree).peak_memory == opt_min_mem(tree)[1]


class TestRecExpandEdge:
    def test_rec_expand_at_peak_returns_input_shape(self):
        tree = TaskTree([-1, 0, 0, 1, 2], [1, 2, 2, 6, 6])
        peak = memory_bounds(tree).peak_incore
        result = rec_expand(tree, peak)
        assert result.expanded_tree_size == tree.n
        assert result.io_volume == 0

    def test_full_rec_expand_zero_weight_victims(self):
        # Zero-weight nodes can never be victims (tau <= w = 0).
        tree = TaskTree([-1, 0, 0, 1, 2], [1, 0, 2, 6, 6])
        bounds = memory_bounds(tree)
        if bounds.has_io_regime:
            result = full_rec_expand(tree, bounds.mid)
            validate(tree, result.traversal, bounds.mid)
