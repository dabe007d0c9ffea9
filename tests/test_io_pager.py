"""Tests for the page-granular simulator and its eviction policies.

The centrepiece is the isomorphism check: with page size 1 the Belady
pager must reproduce the node-level FiF simulator's I/O volume exactly,
on any tree and any topological schedule — the two implementations share
no code, so agreement pins both.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms.liu import min_peak_memory, opt_min_mem
from repro.core.simulator import InfeasibleSchedule, simulate_fif
from repro.core.tree import TaskTree, chain_tree, star_tree
from repro.io.pager import paged_io, page_policy_comparison
from repro.io.policies import POLICIES, make_policy

from .conftest import task_trees, trees_with_memory


def _postorder(tree: TaskTree) -> list[int]:
    return tree.postorder()


class TestBeladyMatchesNodeFiF:
    """Page size 1 + Belady == the paper's FiF model (Theorem 1 analogue)."""

    @given(tm=trees_with_memory(max_nodes=8, max_weight=9))
    def test_on_postorder_schedules(self, tm):
        tree, memory = tm
        schedule = _postorder(tree)
        node = simulate_fif(tree, schedule, memory)
        paged = paged_io(tree, schedule, memory, page_size=1, policy="belady")
        assert paged.write_units == node.io_volume
        assert paged.read_units == node.io_volume  # reads mirror writes

    @given(tm=trees_with_memory(max_nodes=8, max_weight=9))
    def test_on_liu_schedules(self, tm):
        tree, memory = tm
        schedule, _peak = opt_min_mem(tree)
        node = simulate_fif(tree, schedule, memory)
        paged = paged_io(tree, schedule, memory, page_size=1, policy="belady")
        assert paged.write_units == node.io_volume

    def test_on_paper_figure_2b(self):
        from repro.datasets.instances import figure_2b

        inst = figure_2b()
        assert inst.witness_schedule is not None
        node = simulate_fif(inst.tree, inst.witness_schedule, inst.memory)
        paged = paged_io(
            inst.tree, inst.witness_schedule, inst.memory, page_size=1
        )
        assert paged.write_units == node.io_volume == 3

    @given(tm=trees_with_memory(max_nodes=7, max_weight=8))
    def test_per_node_io_agrees_in_total(self, tm):
        tree, memory = tm
        schedule = _postorder(tree)
        node = simulate_fif(tree, schedule, memory)
        paged = paged_io(tree, schedule, memory, page_size=1)
        assert sum(paged.io_by_node.values()) == node.io_volume


class TestPageRounding:
    """Belady at page size P == node FiF on the page-rounded instance."""

    @given(
        tm=trees_with_memory(max_nodes=7, max_weight=12),
        page=st.integers(2, 5),
    )
    def test_rounding_correspondence(self, tm, page):
        tree, memory = tm
        rounded = tree.with_weights([-(-w // page) * page for w in tree.weights])
        frames_memory = (memory // page) * page
        if frames_memory < max(rounded.wbar):
            return  # rounded instance infeasible at this page size
        schedule = _postorder(tree)
        node = simulate_fif(rounded, schedule, frames_memory)
        paged = paged_io(tree, schedule, memory, page_size=page, policy="belady")
        assert paged.write_units == node.io_volume

    @given(tm=trees_with_memory(max_nodes=7, max_weight=12))
    def test_larger_pages_never_reduce_io(self, tm):
        """Coarser granularity can only round memory down and weights up."""
        tree, memory = tm
        schedule = _postorder(tree)
        io1 = paged_io(tree, schedule, memory, page_size=1).write_units
        for page in (2, 3):
            rounded_wbar = max(
                max(-(-tree.weights[v] // page) * page,
                    sum(-(-tree.weights[c] // page) * page for c in tree.children[v]))
                for v in range(tree.n)
            )
            if (memory // page) * page < rounded_wbar:
                continue
            io_p = paged_io(tree, schedule, memory, page_size=page).write_units
            assert io_p >= io1


class TestPolicies:
    @given(tm=trees_with_memory(max_nodes=8, max_weight=9))
    def test_belady_is_optimal_among_policies(self, tm):
        tree, memory = tm
        schedule = _postorder(tree)
        results = page_policy_comparison(
            tree, schedule, memory, policies=("belady", "lru", "fifo", "random", "pessimal")
        )
        best = results["belady"].write_pages
        for name, res in results.items():
            assert res.write_pages >= best, name

    @given(tm=trees_with_memory(max_nodes=8, max_weight=9))
    def test_lru_degenerates_to_fifo(self, tm):
        """Single-touch workload: recency order == arrival order."""
        tree, memory = tm
        schedule = _postorder(tree)
        lru = paged_io(tree, schedule, memory, policy="lru")
        fifo = paged_io(tree, schedule, memory, policy="fifo")
        assert lru.write_pages == fifo.write_pages

    def test_random_policy_is_seed_deterministic(self):
        tree = TaskTree(parents=[-1, 0, 1, 0, 3], weights=[1, 3, 4, 3, 4])
        schedule = [2, 4, 1, 3, 0]  # interleave the chains to force evictions
        a = paged_io(tree, schedule, 6, policy="random", seed=7)
        b = paged_io(tree, schedule, 6, policy="random", seed=7)
        assert a.write_pages > 0
        assert a.write_pages == b.write_pages
        assert a.io_by_node == b.io_by_node

    def test_pessimal_can_be_strictly_worse(self):
        # Two chains under a root: evicting the soon-needed output cascades.
        tree = TaskTree(
            parents=[-1, 0, 1, 0, 3],
            weights=[1, 3, 4, 3, 4],
        )
        schedule = [2, 4, 1, 3, 0]
        memory = min_peak_memory(tree) - 1
        belady = paged_io(tree, schedule, memory, policy="belady")
        pessimal = paged_io(tree, schedule, memory, policy="pessimal")
        assert pessimal.write_pages >= belady.write_pages

    def test_unknown_policy_raises(self):
        with pytest.raises(KeyError):
            make_policy("marvellous")

    def test_policies_registry_has_the_documented_names(self):
        assert {"belady", "fif", "lru", "fifo", "random", "pessimal"} <= set(POLICIES)


class TestMechanics:
    def test_no_io_when_memory_ample(self):
        tree = chain_tree([3, 5, 2, 6])
        res = paged_io(tree, tree.postorder(), memory=100)
        assert res.write_pages == res.read_pages == 0
        assert res.peak_frames <= 100

    def test_infeasible_step_raises(self):
        tree = star_tree(1, [5, 5])  # wbar(root) = 10
        with pytest.raises(InfeasibleSchedule):
            paged_io(tree, tree.postorder(), memory=9)

    def test_frames_are_floor_of_memory_over_page(self):
        tree = chain_tree([2, 2])
        res = paged_io(tree, tree.postorder(), memory=7, page_size=3)
        assert res.frames == 2

    def test_trace_events_match_counters(self):
        from repro.datasets.instances import figure_2b

        inst = figure_2b()
        res = paged_io(
            inst.tree, inst.witness_schedule, inst.memory, trace=True
        )
        writes = [e for e in res.events if e.op == "write"]
        reads = [e for e in res.events if e.op == "read"]
        assert len(writes) == res.write_pages
        assert len(reads) == res.read_pages

    def test_every_read_was_written_first(self):
        from repro.datasets.instances import figure_2b

        inst = figure_2b()
        res = paged_io(
            inst.tree, inst.witness_schedule, inst.memory, trace=True
        )
        written: set[int] = set()
        for ev in res.events:
            if ev.op == "write":
                written.add(ev.page)
            else:
                assert ev.page in written

    @given(tm=trees_with_memory(max_nodes=8, max_weight=9))
    def test_peak_frames_within_bound(self, tm):
        tree, memory = tm
        res = paged_io(tree, _postorder(tree), memory)
        assert res.peak_frames <= res.frames

    def test_custom_policy_instance_accepted(self):
        tree = chain_tree([3, 5, 2, 6])
        policy = make_policy("belady")
        res = paged_io(tree, tree.postorder(), memory=8, policy=policy)
        assert res.policy == "BeladyPolicy"

    def test_performance_metric(self):
        tree = chain_tree([2, 2])
        res = paged_io(tree, tree.postorder(), memory=10)
        assert res.performance(10) == pytest.approx(1.0)
