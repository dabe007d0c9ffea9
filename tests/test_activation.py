"""Tests for activation-window parallel scheduling.

The two reductions pin the semantics: window 1 *is* the sequential
traversal (same order, same I/O as the FiF simulator), window n *is*
plain priority-list scheduling.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.algorithms.liu import opt_min_mem
from repro.core.simulator import simulate_fif
from repro.parallel import (
    priority_from_schedule,
    simulate_activation,
    simulate_parallel,
    window_sweep,
)

from .conftest import trees_with_memory


class TestReductions:
    @given(tm=trees_with_memory(max_nodes=8, max_weight=9))
    @settings(max_examples=40)
    def test_window_one_single_proc_is_sequential(self, tm):
        tree, memory = tm
        order = opt_min_mem(tree)[0]
        report = simulate_activation(tree, memory, 1, order, window=1)
        assert report.order == list(order)
        assert report.io_volume == simulate_fif(tree, order, memory).io_volume

    @given(tm=trees_with_memory(max_nodes=8, max_weight=9))
    @settings(max_examples=40)
    def test_window_n_equals_plain_priority_list(self, tm):
        tree, memory = tm
        order = opt_min_mem(tree)[0]
        gated = simulate_activation(tree, memory, 3, order, window=tree.n)
        plain = simulate_parallel(
            tree, memory, 3, priority_from_schedule(order)
        )
        assert gated.order == plain.order
        assert gated.io_volume == plain.io_volume
        assert gated.makespan == plain.makespan

    @given(tm=trees_with_memory(max_nodes=8, max_weight=9))
    @settings(max_examples=30)
    def test_window_one_many_procs_still_sequential_order(self, tm):
        """With window 1 extra processors cannot reorder execution starts."""
        tree, memory = tm
        order = opt_min_mem(tree)[0]
        report = simulate_activation(tree, memory, 4, order, window=1)
        assert report.order == list(order)


class TestSweep:
    def _instance(self):
        from repro.datasets.synth import synth_instance
        from repro.analysis.bounds import memory_bounds

        for seed in range(5, 60):
            tree = synth_instance(40, seed=seed)
            bounds = memory_bounds(tree)
            if bounds.has_io_regime:
                return tree, bounds.mid
        raise AssertionError("no instance found")

    def test_sweep_covers_all_windows(self):
        tree, memory = self._instance()
        order = opt_min_mem(tree)[0]
        reports = window_sweep(tree, memory, 2, order, windows=(1, 4, tree.n))
        assert set(reports) == {1, 4, tree.n}

    def test_wider_window_never_slows_down_unit_durations(self):
        """More admissible tasks == more parallelism on this workload."""
        tree, memory = self._instance()
        order = opt_min_mem(tree)[0]
        reports = window_sweep(tree, memory, 4, order, windows=(1, tree.n))
        assert reports[tree.n].makespan <= reports[1].makespan + 1e-9

    def test_window_one_io_matches_fif_on_one_processor(self):
        # The exact sequential reduction needs p=1: with more processors
        # window 1 still starts tasks in sigma-order, but overlapping
        # executions reserve memory concurrently and can change the I/O.
        tree, memory = self._instance()
        order = opt_min_mem(tree)[0]
        reports = window_sweep(tree, memory, 1, order, windows=(1, tree.n))
        assert reports[1].io_volume == simulate_fif(tree, order, memory).io_volume

    def test_all_reports_complete_every_task(self):
        tree, memory = self._instance()
        order = opt_min_mem(tree)[0]
        for report in window_sweep(
            tree, memory, 3, order, windows=(1, 2, 8)
        ).values():
            assert sorted(report.order) == list(range(tree.n))


class TestValidation:
    def test_window_zero_rejected(self):
        from repro.core.tree import chain_tree

        tree = chain_tree([2, 3])
        with pytest.raises(ValueError, match="window"):
            simulate_activation(tree, 5, 1, [1, 0], window=0)

    def test_bad_order_rejected(self):
        from repro.core.tree import chain_tree

        tree = chain_tree([2, 3])
        with pytest.raises(ValueError, match="permutation"):
            simulate_activation(tree, 5, 1, [0, 0], window=1)
