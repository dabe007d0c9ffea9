"""Tests for the RecExpand / FullRecExpand heuristics (Algorithm 2)."""

from __future__ import annotations

import importlib

import pytest
from hypothesis import given, settings

from repro.algorithms.brute_force import min_io_brute
from repro.algorithms.liu import min_peak_memory
from repro.algorithms.rec_expand import (
    ExpansionLimitExceeded,
    full_rec_expand,
    rec_expand,
)
from repro.core.simulator import fif_io_volume
from repro.core.traversal import validate
from repro.core.tree import TaskTree, chain_tree, star_tree
from repro.datasets.instances import figure_2b, figure_6, figure_7

from .conftest import trees_with_memory


class TestPaperExamples:
    def test_figure_6_reaches_optimum(self):
        inst = figure_6()
        result = full_rec_expand(inst.tree, inst.memory)
        assert result.io_volume == 3  # the paper's optimal value
        assert result.expanded_io == 3
        assert result.residual_io == 0
        validate(inst.tree, result.traversal, inst.memory)

    def test_figure_6_expansion_story(self):
        # b is expanded by 2, then its residual reduced by 1: 2 expansions.
        inst = figure_6()
        result = full_rec_expand(inst.tree, inst.memory)
        assert result.expansions == 2
        assert result.expanded_tree_size == inst.tree.n + 2

    def test_figure_7_not_optimal(self):
        # The paper's point: no expansion-guided strategy reaches 3 here.
        inst = figure_7()
        result = full_rec_expand(inst.tree, inst.memory)
        assert result.io_volume == 4
        opt, _ = min_io_brute(inst.tree, inst.memory)
        assert opt == 3

    def test_figure_2b_beats_optminmem(self):
        inst = figure_2b()
        from repro.algorithms.liu import opt_min_mem

        schedule, _ = opt_min_mem(inst.tree)
        liu_io = fif_io_volume(inst.tree, schedule, inst.memory)
        result = full_rec_expand(inst.tree, inst.memory)
        assert result.io_volume <= liu_io
        assert result.io_volume == 3  # matches the witness optimum


class TestMechanics:
    def test_no_expansion_when_memory_suffices(self):
        tree = star_tree(1, [2, 3])
        peak = min_peak_memory(tree)
        result = full_rec_expand(tree, peak)
        assert result.expansions == 0
        assert result.io_volume == 0
        assert result.expanded_tree_size == tree.n

    def test_rejects_memory_below_lb(self):
        tree = star_tree(1, [2, 3])
        with pytest.raises(ValueError, match="minimal feasible"):
            full_rec_expand(tree, tree.min_feasible_memory() - 1)

    def test_rec_expand_is_cap_two(self):
        inst = figure_6()
        capped = full_rec_expand(inst.tree, inst.memory, iteration_cap=2)
        assert rec_expand(inst.tree, inst.memory) == capped

    def test_iteration_cap_zero_degenerates_to_optminmem(self):
        from repro.algorithms.liu import opt_min_mem

        inst = figure_2b()
        result = full_rec_expand(inst.tree, inst.memory, iteration_cap=0)
        schedule, _ = opt_min_mem(inst.tree)
        assert result.expansions == 0
        assert result.io_volume == fif_io_volume(inst.tree, schedule, inst.memory)

    def test_global_budget_raises(self):
        inst = figure_2b()
        with pytest.raises(ExpansionLimitExceeded):
            full_rec_expand(inst.tree, inst.memory, max_total_iterations=0)

    def test_full_rec_expand_tree_fits_after(self):
        """FULLRECEXPAND's postcondition: the expanded tree is I/O-free."""
        inst = figure_2b()
        result = full_rec_expand(inst.tree, inst.memory)
        assert result.residual_io == 0

    def test_monotone_iteration_caps(self):
        # More iterations never hurt on these instances.
        inst = figure_2b()
        ios = [
            full_rec_expand(inst.tree, inst.memory, iteration_cap=c).io_volume
            for c in (0, 1, 2, None)
        ]
        assert ios == sorted(ios, reverse=True) or ios[-1] <= ios[0]


class TestFifPasses:
    """One FiF per while-loop iteration, plus the final ones."""

    @pytest.fixture
    def fif_calls(self, monkeypatch):
        # the package re-exports the function under the module's name
        module = importlib.import_module("repro.algorithms.rec_expand")
        calls = []
        real = module.simulate_fif_core

        def counting(*args):
            calls.append(args[-1])
            return real(*args)

        monkeypatch.setattr(module, "simulate_fif_core", counting)
        return calls

    @pytest.mark.parametrize("cap", [0, 1, 2, None])
    def test_residual_pass_only_when_the_root_overflows(self, fif_calls, cap):
        import numpy as np

        from repro.datasets.synth import random_plane_tree, random_weights

        rng = np.random.default_rng(17)
        kinds = set()
        for _ in range(40):
            n = int(rng.integers(2, 60))
            tree = random_plane_tree(n, rng).with_weights(random_weights(n, rng))
            lb, peak = tree.min_feasible_memory(), min_peak_memory(tree)
            for memory in {lb, (lb + peak) // 2, peak}:
                fif_calls.clear()
                result = full_rec_expand(tree, memory, iteration_cap=cap)
                # the final root fits M exactly when FiF leaves no residual
                fits = result.residual_io == 0
                extra = 1 if fits else 2
                assert len(fif_calls) == result.iterations + extra
                kinds.add(fits)
        if cap is None:
            assert kinds == {True}  # FullRecExpand always ends I/O-free
        if cap == 0:
            assert kinds == {True, False}


class TestInvariants:
    @given(trees_with_memory())
    @settings(max_examples=80)
    def test_valid_and_bounded_by_expansions(self, tree_memory):
        tree, memory = tree_memory
        for result in (rec_expand(tree, memory), full_rec_expand(tree, memory)):
            validate(tree, result.traversal, memory)
            assert result.io_volume == result.traversal.io_volume
            assert result.io_volume <= result.expanded_io + result.residual_io
            assert result.expanded_tree_size >= tree.n

    @given(trees_with_memory(max_nodes=6))
    @settings(max_examples=50)
    def test_never_below_brute_force_optimum(self, tree_memory):
        tree, memory = tree_memory
        opt, _ = min_io_brute(tree, memory)
        assert rec_expand(tree, memory).io_volume >= opt
        assert full_rec_expand(tree, memory).io_volume >= opt

    @given(trees_with_memory())
    @settings(max_examples=50)
    def test_full_rec_expand_expanded_tree_is_io_free(self, tree_memory):
        tree, memory = tree_memory
        result = full_rec_expand(tree, memory)
        assert result.residual_io == 0

    @given(trees_with_memory())
    @settings(max_examples=50)
    def test_no_io_needed_implies_untouched_tree(self, tree_memory):
        tree, memory = tree_memory
        if memory >= min_peak_memory(tree):
            result = full_rec_expand(tree, memory)
            assert result.expansions == 0 and result.io_volume == 0


class TestScalability:
    def test_deep_chain(self):
        # Alternating weights force I/O along a deep chain.
        n = 2000
        weights = [3 if i % 2 else 1 for i in range(n)]
        tree = TaskTree([i - 1 for i in range(n)], weights)
        memory = tree.min_feasible_memory()
        result = rec_expand(tree, memory)
        validate(tree, result.traversal, memory)

    def test_wide_star(self):
        tree = star_tree(1, [2] * 400)
        memory = tree.min_feasible_memory()
        result = rec_expand(tree, memory)
        validate(tree, result.traversal, memory)
        assert result.io_volume == 0  # the root step dominates anyway
