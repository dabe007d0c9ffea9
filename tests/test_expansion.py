"""Tests for the node-expansion machinery (Section 5 / Figure 3)."""

from __future__ import annotations

import pytest
from hypothesis import given
import hypothesis.strategies as st

from repro.core.expansion import ExpansionTree, Role, expand_tree
from repro.core.tree import TaskTree, chain_tree, star_tree

from .conftest import task_trees


class TestSpliceExpansion:
    def test_splice_structure(self):
        tree = chain_tree([2, 6, 4])  # root(2) <- 1(6) <- leaf(4)
        xt = ExpansionTree(tree)
        dirty = xt.expand(1, 2)
        # chain becomes: leaf(4) -> 1(6) -> residual(4) -> readback(6) -> root
        assert xt.n == 5
        residual, readback = 3, 4
        assert dirty == readback
        assert xt.weights[residual] == 4
        assert xt.weights[readback] == 6
        assert xt.parents[1] == residual
        assert xt.parents[residual] == readback
        assert xt.parents[readback] == 0
        assert xt.cindex[xt.start[0] : xt.start[1]] == [readback]
        assert xt.role[residual] == Role.RESIDUAL
        assert xt.role[readback] == Role.READBACK
        assert xt.origin[residual] == xt.origin[readback] == 1
        assert xt.expanded_io == 2
        assert xt.num_expansions == 1

    def test_expand_weights_mimic_io(self):
        """The three weights are w, w - tau, w (Figure 3)."""
        tree = chain_tree([1, 5])
        xt = ExpansionTree(tree)
        xt.expand(1, 3)
        # original keeps 5; residual 2; readback 5
        assert xt.weights[1] == 5
        assert sorted(xt.weights[2:]) == [2, 5]

    def test_expand_root_rehangs_root(self):
        tree = TaskTree([-1], [4])
        xt = ExpansionTree(tree)
        xt.expand(0, 1)
        assert xt.root != 0
        assert xt.parents[xt.root] == -1
        assert xt.role[xt.root] == Role.READBACK

    def test_full_eviction_allows_zero_residual(self):
        tree = chain_tree([1, 5])
        xt = ExpansionTree(tree)
        xt.expand(1, 5)
        assert 0 in xt.weights

    def test_rejects_overlarge_amount(self):
        xt = ExpansionTree(chain_tree([1, 5]))
        with pytest.raises(ValueError, match="only 5 resident"):
            xt.expand(1, 6)

    def test_rejects_nonpositive_amount(self):
        xt = ExpansionTree(chain_tree([1, 5]))
        with pytest.raises(ValueError, match="positive"):
            xt.expand(1, 0)

    def test_sibling_order_preserved_on_splice(self):
        tree = star_tree(1, [2, 3, 4])
        xt = ExpansionTree(tree)
        xt.expand(2, 1)  # middle child
        kids = xt.cindex[xt.start[0] : xt.start[1]]
        assert kids[0] == 1 and kids[2] == 3
        assert xt.origin[kids[1]] == 2  # the readback replaced node 2 in place


class TestWeightReduction:
    def test_second_expansion_reduces_residual(self):
        """Figure 6's 4,2,4 -> 4,1,4 behaviour."""
        tree = chain_tree([1, 4])
        xt = ExpansionTree(tree)
        xt.expand(1, 2)
        residual = next(v for v in range(xt.n) if xt.role[v] == Role.RESIDUAL)
        assert xt.weights[residual] == 2
        dirty = xt.expand(residual, 1)
        assert dirty == residual
        assert xt.weights[residual] == 1
        assert xt.n == 4  # no new nodes
        assert xt.expanded_io == 3

    def test_readback_expansion_splices_again(self):
        tree = chain_tree([1, 4])
        xt = ExpansionTree(tree)
        xt.expand(1, 2)
        readback = next(v for v in range(xt.n) if xt.role[v] == Role.READBACK)
        xt.expand(readback, 1)
        assert xt.n == 6
        # still exactly one ORIGINAL node per original task
        originals = [v for v in range(xt.n) if xt.role[v] == Role.ORIGINAL]
        assert sorted(xt.origin[v] for v in originals) == [0, 1]


class TestBookkeeping:
    def test_as_task_tree_valid(self):
        xt = ExpansionTree(chain_tree([2, 6, 4]))
        xt.expand(1, 3)
        frozen = xt.as_task_tree()
        assert frozen.n == 5
        assert frozen.total_weight() == 2 + 6 + 4 + 3 + 6

    def test_restrict_schedule_drops_helpers(self):
        tree = chain_tree([2, 6, 4])
        xt = ExpansionTree(tree)
        xt.expand(1, 2)
        # full expanded order: leaf(2), node1, residual, readback, root
        full = [2, 1, 3, 4, 0]
        assert xt.restrict_schedule(full) == [2, 1, 0]

    def test_io_per_original_node(self):
        tree = chain_tree([2, 6, 4])
        xt = ExpansionTree(tree)
        xt.expand(1, 2)
        assert xt.io_per_original_node() == {1: 2}
        residual = next(v for v in range(xt.n) if xt.role[v] == Role.RESIDUAL)
        xt.expand(residual, 1)
        assert xt.io_per_original_node() == {1: 3}

    def test_repr(self):
        xt = ExpansionTree(chain_tree([1, 2]))
        assert "base_n=2" in repr(xt)


class TestExpandTreeOneShot:
    def test_expands_all_positive_entries(self):
        tree = star_tree(1, [3, 4])
        expanded, xt = expand_tree(tree, [0, 1, 2])
        assert expanded.n == 3 + 2 * 2
        assert xt.expanded_io == 3

    def test_rejects_misaligned_io(self):
        with pytest.raises(ValueError, match="aligned"):
            expand_tree(chain_tree([1, 2]), [0])

    def test_rejects_out_of_range_io(self):
        with pytest.raises(ValueError, match="out of range"):
            expand_tree(chain_tree([1, 2]), [0, 3])

    @given(task_trees(max_nodes=8), st.data())
    def test_expanded_tree_weight_accounting(self, tree, data):
        io = [
            data.draw(st.integers(0, tree.weights[v]), label=f"io[{v}]")
            for v in range(tree.n)
        ]
        expanded, xt = expand_tree(tree, io)
        # Each expanded node adds (w - tau) + w extra weight.
        extra = sum(2 * tree.weights[v] - io[v] for v in range(tree.n) if io[v])
        assert expanded.total_weight() == tree.total_weight() + extra
        assert xt.expanded_io == sum(io)
