"""Tests for Liu's optimal MinMem solver (OPTMINMEM)."""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.algorithms.brute_force import min_peak_brute
from repro.algorithms.liu import LiuSolver, min_peak_memory, opt_min_mem
from repro.core.expansion import ExpansionTree
from repro.core.kernels import liu_combine, liu_fill, liu_segments_core
from repro.core.simulator import schedule_peak_memory
from repro.core.tree import TaskTree, balanced_binary_tree, chain_tree, star_tree
from repro.datasets.instances import figure_2b, figure_2c, figure_6, figure_7

from .conftest import task_trees


class TestSmallExactValues:
    def test_single_node(self):
        schedule, peak = opt_min_mem(TaskTree([-1], [7]))
        assert schedule == [0] and peak == 7

    def test_chain_peak_is_max_adjacent_constraint(self):
        # Chain 2 <- 9 <- 3 (root weight 2): peak = max over nodes of wbar.
        tree = chain_tree([2, 9, 3])
        _, peak = opt_min_mem(tree)
        assert peak == 9

    def test_star_peak(self):
        tree = star_tree(1, [5, 3, 2])
        _, peak = opt_min_mem(tree)
        assert peak == 10  # all leaves must coexist at the root step

    def test_two_independent_chains_interleaving_helps(self):
        # Figure 2(b): the optimal peak is 8, below the chain-by-chain 9.
        inst = figure_2b()
        schedule, peak = opt_min_mem(inst.tree)
        assert peak == 8
        assert schedule_peak_memory(inst.tree, schedule) == 8

    def test_figure_2c_peak(self):
        for k in (1, 2, 3, 5):
            inst = figure_2c(k)
            _, peak = opt_min_mem(inst.tree)
            assert peak == 5 * k

    def test_figure_6_peak(self):
        _, peak = opt_min_mem(figure_6().tree)
        assert peak == 12

    def test_figure_7_peak(self):
        _, peak = opt_min_mem(figure_7().tree)
        assert peak == 9

    def test_balanced_homogeneous(self):
        # Unit-weight complete binary tree of depth d: peak = d + 1 (the
        # second child of each level is processed with one sibling pending;
        # this is Sethi–Ullman register counting).
        for depth in (1, 2, 3, 4):
            _, peak = opt_min_mem(balanced_binary_tree(depth))
            assert peak == depth + 1


class TestSegments:
    def test_leaf_segment(self):
        solver = LiuSolver(TaskTree([-1], [4]))
        segs = solver.segments()
        assert len(segs) == 1
        assert (segs[0].hill, segs[0].valley) == (4, 4)

    def test_canonical_invariants_random(self):
        import numpy as np

        from repro.datasets.synth import random_plane_tree, random_weights

        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            tree = random_plane_tree(n, rng).with_weights(random_weights(n, rng))
            solver = LiuSolver(tree)
            for v in range(tree.n):
                segs = solver.segments(v)
                hills = [s.hill for s in segs]
                valleys = [s.valley for s in segs]
                assert hills == sorted(hills, reverse=True)
                assert valleys == sorted(valleys)
                assert len(set(hills)) == len(hills)
                assert len(set(valleys)) == len(valleys)
                assert all(h >= v for h, v in zip(hills, valleys))
                assert valleys[-1] == tree.weights[v]

    def test_segment_nodes_partition_subtree(self):
        tree = figure_2b().tree
        solver = LiuSolver(tree)
        nodes = [v for seg in solver.segments() for v in seg.node_list()]
        assert sorted(nodes) == list(range(tree.n))

    def test_schedule_matches_segments(self):
        tree = figure_2b().tree
        solver = LiuSolver(tree)
        flat = [v for seg in solver.segments() for v in seg.node_list()]
        assert solver.schedule() == flat


class TestScheduleProperties:
    @given(task_trees(max_nodes=9))
    def test_schedule_is_topological_and_realises_peak(self, tree):
        schedule, peak = opt_min_mem(tree)
        pos = {v: i for i, v in enumerate(schedule)}
        assert sorted(schedule) == list(range(tree.n))
        for v in range(tree.n):
            if tree.parents[v] != -1:
                assert pos[v] < pos[tree.parents[v]]
        assert schedule_peak_memory(tree, schedule) == peak

    @given(task_trees(max_nodes=7))
    @settings(max_examples=60)
    def test_optimal_vs_brute_force(self, tree):
        _, peak = opt_min_mem(tree)
        brute, _ = min_peak_brute(tree)
        assert peak == brute

    @given(task_trees(max_nodes=9))
    def test_peak_at_least_lb(self, tree):
        assert min_peak_memory(tree) >= tree.min_feasible_memory()

    def test_deep_chain_no_recursion(self):
        n = 30_000
        tree = TaskTree([i - 1 for i in range(n)], [1] * n)
        schedule, peak = opt_min_mem(tree)
        assert peak == 1
        assert len(schedule) == n


class TestIncrementalSolve:
    def test_invalidate_then_recompute_matches_fresh(self):
        tree = figure_6().tree
        xt = ExpansionTree(tree)
        solver = LiuSolver(xt)
        before = solver.peak()
        dirty = xt.expand(5, 2)  # node b of the figure
        solver.invalidate_from(dirty)
        incremental = solver.peak()
        fresh = LiuSolver(xt).peak()
        assert incremental == fresh
        assert incremental <= before

    def test_invalidate_keeps_sibling_caches(self):
        tree = figure_6().tree
        xt = ExpansionTree(tree)
        solver = LiuSolver(xt)
        solver.peak()
        cached_before = dict(solver._segs)
        dirty = xt.expand(5, 2)
        solver.invalidate_from(dirty)
        # The untouched left branch (nodes 0..3) must still be cached.
        for v in (0, 1, 2, 3):
            assert solver._segs[v] is cached_before[v]
        # The ancestors of the expansion must be gone.
        assert 7 not in solver._segs

    def test_weight_reduction_invalidation(self):
        tree = chain_tree([2, 6, 4])
        xt = ExpansionTree(tree)
        solver = LiuSolver(xt)
        assert solver.peak() == 6
        residual = xt.expand(1, 3)  # splice above node 1
        solver.invalidate_from(residual)
        p1 = solver.peak()
        assert p1 == LiuSolver(xt).peak()
        # reduce the residual node further
        mid = xt.n - 2
        dirty = xt.expand(mid, 1)
        assert dirty == mid
        solver.invalidate_from(dirty)
        assert solver.peak() == LiuSolver(xt).peak()


class TestTieBreakDeterminism:
    def test_same_tree_same_schedule(self):
        tree = figure_2c(3).tree
        assert opt_min_mem(tree) == opt_min_mem(tree)

    def test_figure_2c_schedule_interleaves_chains(self):
        # The essence of Section 4.4: the optimal-peak schedule alternates
        # between the two chains (this is what makes its I/O terrible).
        inst = figure_2c(4)
        schedule, _ = opt_min_mem(inst.tree)
        m = 2 * 4 + 2
        chain_of = lambda v: 0 if v < m else (1 if v < 2 * m else 2)
        switches = sum(
            1
            for a, b in zip(schedule, schedule[1:])
            if chain_of(a) != chain_of(b) and chain_of(b) != 2
        )
        assert switches >= 4  # a chain-by-chain schedule would have 1


def _fill_args(tree):
    lists = tree.core_lists()
    return lists.weights, lists.start, lists.cindex


def _kept_store(tree) -> list:
    """Every node's segments, from one unbroken ``keep=True`` pass."""
    segs: list = [None] * tree.n
    assert liu_fill(*_fill_args(tree), tree.bottom_up(), segs, keep=True) is None
    return segs


class TestFillContract:
    """``liu_fill``'s ``keep`` and ``limit`` modes, which RecExpand runs on."""

    @given(task_trees(min_nodes=1, max_nodes=30, min_weight=0))
    @settings(max_examples=80)
    def test_keep_leaves_every_child_list_intact(self, tree):
        segs: list = [None] * tree.n
        produced = {}
        for v in tree.bottom_up():  # one node per call: snapshot on arrival
            liu_fill(*_fill_args(tree), [v], segs, keep=True)
            produced[v] = list(segs[v])
        assert all(segs[v] == produced[v] for v in range(tree.n))
        lists = tree.core_lists()
        assert segs[tree.root] == liu_segments_core(
            tree.n, lists.weights, lists.start, lists.cindex, lists.topo
        )

    def test_default_call_consumes_children(self):
        tree = figure_2b().tree
        segs: list = [None] * tree.n
        assert liu_fill(*_fill_args(tree), tree.bottom_up(), segs) is None
        assert [v for v in range(tree.n) if segs[v] is not None] == [tree.root]

    @given(task_trees(min_nodes=1, max_nodes=30, min_weight=0), st.integers(0, 40))
    @settings(max_examples=120)
    def test_limit_stops_at_each_node_over_it_and_resumes(self, tree, limit):
        whole = _kept_store(tree)
        over = [v for v in tree.bottom_up() if whole[v][0][0] > limit]
        order = tree.bottom_up()
        segs: list = [None] * tree.n
        stops = []
        while (v := liu_fill(
            *_fill_args(tree), order, segs, keep=True, limit=limit
        )) is not None:
            assert segs[v] == whole[v]  # solved before the fill returns it
            stops.append(v)
        assert stops == over
        assert segs == whole


def _sorted_combine(v, w_v, kids):
    """Reference combine: all children's deltas through one tuple sort."""
    items = []
    for rank, child in enumerate(kids):
        prev = 0
        for hill, valley, nodes in child:
            items.append((valley - hill, rank, hill - prev, valley - prev, nodes))
            prev = valley
    items.sort()
    steps = []  # (hill, valley, nodes) replayed on the running base
    base = 0
    for _neg, _rank, x, y, nodes in items:
        steps.append((base + x, base + y, nodes))
        base += y
    steps.append((max(base, w_v), w_v, v))  # v itself runs last
    out = []
    for hill, valley, nodes in steps:
        while out and (hill >= out[-1][0] or valley <= out[-1][1]):
            top_hill, _valley, top_nodes = out.pop()
            hill = max(hill, top_hill)
            nodes = (top_nodes, nodes)
        out.append((hill, valley, nodes))
    return out


@st.composite
def canonical_segments(draw, tag: int):
    """A canonical child list: hills strictly falling, valleys rising."""
    s = draw(st.integers(1, 5))
    valleys = sorted(draw(st.sets(st.integers(0, 40), min_size=s, max_size=s)))
    hills = sorted(
        draw(st.sets(st.integers(valleys[-1], valleys[-1] + 40), min_size=s, max_size=s)),
        reverse=True,
    )
    return [(h, t, tag * 100 + i) for i, (h, t) in enumerate(zip(hills, valleys))]


class TestTwoChildMerge:
    @given(
        canonical_segments(1), canonical_segments(2), st.integers(0, 60),
        st.integers(0, 20), st.booleans(),
    )
    @settings(max_examples=300)
    def test_merge_equals_sorted_combine(self, a, b, w_v, shift, tie):
        if tie:
            # b replays a's (valley - hill) keys exactly: every key ties
            b = [(h + shift, t + shift, 200 + i) for i, (h, t, _) in enumerate(a)]
        want = _sorted_combine(7, w_v, [a, b])
        a_copy, b_copy = list(a), list(b)
        assert liu_combine(7, w_v, [a, b]) == want
        assert (a, b) == (a_copy, b_copy)  # two or more children: only read

    def test_ties_go_to_the_first_child(self):
        a = [(5, 1, "a")]
        b = [(9, 5, "b")]  # same valley - hill as a
        assert liu_combine(0, 0, [a, b]) == [(10, 0, (("a", "b"), 0))]
        assert liu_combine(0, 0, [b, a]) == [(10, 0, (("b", "a"), 0))]
