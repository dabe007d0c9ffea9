"""Tests for the parallel out-of-core simulator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.algorithms.liu import opt_min_mem
from repro.core.simulator import fif_io_volume
from repro.core.tree import TaskTree, chain_tree, star_tree
from repro.parallel import (
    priority_from_schedule,
    priority_from_strategy,
    simulate_parallel,
)
from repro.parallel.strategies import critical_path_priority

from .conftest import trees_with_memory


class TestSequentialReduction:
    """p=1 with priorities from sigma must reproduce the sequential model."""

    @given(trees_with_memory())
    @settings(max_examples=60)
    def test_one_proc_matches_fif(self, tree_memory):
        tree, memory = tree_memory
        schedule = opt_min_mem(tree)[0]
        priority = priority_from_schedule(schedule)
        report = simulate_parallel(tree, memory, 1, priority)
        assert report.order == schedule
        assert report.io_volume == fif_io_volume(tree, schedule, memory)

    @given(trees_with_memory())
    @settings(max_examples=40)
    def test_one_proc_makespan_is_total_duration_plus_nothing(self, tree_memory):
        tree, memory = tree_memory
        schedule = opt_min_mem(tree)[0]
        report = simulate_parallel(
            tree, memory, 1, priority_from_schedule(schedule)
        )
        assert report.makespan == pytest.approx(sum(tree.wbar))
        assert report.utilisation() == pytest.approx(1.0)


class TestParallelBehaviour:
    def test_star_uses_all_processors(self):
        tree = star_tree(1, [1] * 6)
        priority = priority_from_schedule(tree.postorder())
        report = simulate_parallel(tree, 100, 3, priority)
        procs = {e.processor for e in report.events}
        assert len(procs) == 3
        # 6 unit leaves on 3 procs = 2 rounds, then the root (wbar 6).
        assert report.makespan == pytest.approx(2.0 + 6.0)

    def test_chain_gains_nothing_from_processors(self):
        tree = chain_tree([2, 3, 4])
        priority = priority_from_schedule(tree.postorder())
        solo = simulate_parallel(tree, 100, 1, priority)
        quad = simulate_parallel(tree, 100, 4, priority)
        assert solo.makespan == pytest.approx(quad.makespan)

    def test_more_processors_never_hurt_here(self):
        tree = star_tree(2, [3, 3, 3, 3])
        priority = priority_from_schedule(tree.postorder())
        m1 = simulate_parallel(tree, 100, 1, priority).makespan
        m2 = simulate_parallel(tree, 100, 2, priority).makespan
        m4 = simulate_parallel(tree, 100, 4, priority).makespan
        assert m4 <= m2 <= m1

    def test_memory_pressure_forces_io_in_parallel(self):
        # Two independent 6-unit leaves + root; M=8 cannot hold both
        # outputs with... with p=2 both run together: reserved 6+6 > 8?
        # The engine must serialise or evict to respect M.
        tree = TaskTree([-1, 0, 0, 1, 2], [1, 2, 2, 6, 6])
        priority = priority_from_schedule([3, 4, 1, 2, 0])
        report = simulate_parallel(tree, 8, 2, priority)
        assert report.peak_memory <= 8
        assert sorted(e.node for e in report.events) == list(range(5))

    def test_peak_memory_never_exceeds_bound(self):
        tree = star_tree(3, [4, 4, 4])
        priority = priority_from_schedule(tree.postorder())
        report = simulate_parallel(tree, 12, 3, priority)
        assert report.peak_memory <= 12

    def test_custom_durations(self):
        tree = chain_tree([1, 1])
        report = simulate_parallel(
            tree, 10, 1, [1, 0], durations=[5.0, 2.5]
        )
        assert report.makespan == pytest.approx(7.5)

    def test_bandwidth_charges_reads(self):
        tree = TaskTree([-1, 0, 0, 1, 2], [1, 2, 2, 6, 6])
        priority = priority_from_schedule([3, 1, 4, 2, 0])
        fast = simulate_parallel(tree, 6, 1, priority, bandwidth=0.0)
        slow = simulate_parallel(tree, 6, 1, priority, bandwidth=1.0)
        assert slow.io_volume == fast.io_volume > 0
        assert slow.makespan > fast.makespan


class TestValidationAndErrors:
    def test_rejects_zero_processors(self):
        tree = chain_tree([1, 1])
        with pytest.raises(ValueError, match="processor"):
            simulate_parallel(tree, 10, 0, [1, 0])

    def test_rejects_low_memory(self):
        tree = star_tree(1, [4, 4])
        with pytest.raises(ValueError, match="feasible"):
            simulate_parallel(tree, 7, 1, [0, 1, 2])

    def test_rejects_misaligned_priority(self):
        tree = chain_tree([1, 1])
        with pytest.raises(ValueError, match="aligned"):
            simulate_parallel(tree, 10, 1, [0])

    @given(trees_with_memory(), st.integers(1, 4))
    @settings(max_examples=50)
    def test_execution_always_complete_and_ordered(self, tree_memory, procs):
        tree, memory = tree_memory
        priority = priority_from_schedule(opt_min_mem(tree)[0])
        report = simulate_parallel(tree, memory, procs, priority)
        started = {e.node: e.start for e in report.events}
        ended = {e.node: e.end for e in report.events}
        assert len(started) == tree.n
        for v in range(tree.n):
            p = tree.parents[v]
            if p != -1:
                assert ended[v] <= started[p] + 1e-9
        assert report.peak_memory <= memory


class TestStrategies:
    def test_priority_from_strategy(self):
        tree = TaskTree([-1, 0, 0, 1, 2], [1, 2, 2, 6, 6])
        rank = priority_from_strategy(tree, 8, "RecExpand")
        assert sorted(rank) == list(range(tree.n))

    def test_critical_path_priority_prefers_deep_chains(self):
        # A deep chain vs a shallow leaf: the chain's leaf ranks first.
        tree = TaskTree([-1, 0, 1, 2, 0], [1, 1, 1, 1, 1])
        rank = critical_path_priority(tree)
        assert rank[3] < rank[4]

    def test_critical_path_respects_custom_durations(self):
        tree = star_tree(1, [1, 1])
        rank = critical_path_priority(tree, durations=[0.0, 1.0, 5.0])
        assert rank[2] < rank[1]
