"""Property tests for the flat :class:`ArrayTree` representation.

Three contracts, per the kernel-layer design:

* ``TaskTree ↔ ArrayTree`` round-trips exactly (both directions, every
  derived quantity);
* invalid descriptions are rejected with :class:`TreeError` exactly when
  ``TaskTree`` rejects them;
* zero-weight nodes (produced by node expansion, Theorem 2) survive the
  flat layout untouched.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.arraytree import ArrayTree, as_array_tree
from repro.core.tree import TaskTree, TreeError, chain_tree, star_tree

from .conftest import task_trees


def assert_same_structure(tree: TaskTree, at: ArrayTree) -> None:
    assert at.n == tree.n
    assert at.root == tree.root
    assert list(at.parents) == list(tree.parents)
    assert list(at.weights) == list(tree.weights)
    assert list(at.wbar) == list(tree.wbar)
    assert [list(c) for c in at.children] == [list(c) for c in tree.children]
    assert list(at.topological_order()) == list(tree.topological_order())
    assert list(at.bottom_up()) == list(tree.bottom_up())
    assert at.leaves() == tree.leaves()
    assert at.depth() == tree.depth()
    assert at.postorder() == tree.postorder()
    assert at.min_feasible_memory() == tree.min_feasible_memory()
    assert at.total_weight() == tree.total_weight()
    assert len(at) == len(tree)


class TestRoundTrip:
    @given(task_trees(max_nodes=24, min_weight=0, max_weight=30))
    @settings(max_examples=80)
    def test_task_tree_round_trip(self, tree):
        at = ArrayTree.from_task_tree(tree)
        assert_same_structure(tree, at)
        back = at.to_task_tree()
        assert back == tree
        assert at == tree  # cross-representation equality
        assert hash(at) == hash(ArrayTree.from_task_tree(back))

    @given(task_trees(max_nodes=24, min_weight=0, max_weight=30))
    @settings(max_examples=80)
    def test_direct_construction_matches_conversion(self, tree):
        direct = ArrayTree(list(tree.parents), list(tree.weights))
        converted = ArrayTree.from_task_tree(tree)
        assert direct == converted
        assert_same_structure(tree, direct)

    def test_permuted_labels(self):
        # Root far from node 0, parents array non-monotone.
        tree = TaskTree([3, 0, 0, -1, 2, 2], [5, 1, 4, 2, 3, 6])
        assert_same_structure(tree, ArrayTree.from_task_tree(tree))
        assert_same_structure(tree, ArrayTree(tree.parents, tree.weights))

    def test_dict_round_trip(self):
        tree = star_tree(2, [4, 0, 3])
        at = ArrayTree.from_dict(tree.to_dict())
        assert at.to_dict() == tree.to_dict()

    def test_numpy_input_accepted(self):
        parents = np.array([-1, 0, 0, 1], dtype=np.int64)
        weights = np.array([3, 1, 4, 1], dtype=np.int64)
        at = ArrayTree(parents, weights)
        assert at == TaskTree(parents.tolist(), weights.tolist())

    def test_as_array_tree_passthrough_and_rejection(self):
        tree = chain_tree([3, 5, 2])
        at = as_array_tree(tree)
        assert as_array_tree(at) is at
        with pytest.raises(TypeError):
            as_array_tree(object())


class TestZeroWeights:
    def test_zero_weight_nodes_preserved(self):
        tree = TaskTree([-1, 0, 0, 1], [0, 0, 7, 0])
        at = ArrayTree.from_task_tree(tree)
        assert list(at.weights) == [0, 0, 7, 0]
        assert at.to_task_tree().weights == (0, 0, 7, 0)
        assert at.wbar[0] == tree.wbar[0]

    def test_all_zero_tree(self):
        at = ArrayTree([-1, 0], [0, 0])
        assert at.total_weight() == 0
        assert at.min_feasible_memory() == 0

    def test_total_weight_exact_beyond_float53(self):
        # The int64 budget reaches past float64's 2^53 integer range;
        # total_weight must stay exact there (engine-equivalence hinges
        # on it).
        weights = [2**53, 3, 5, 7]
        at = ArrayTree([-1, 0, 0, 1], weights)
        tree = TaskTree([-1, 0, 0, 1], weights)
        assert at.total_weight() == tree.total_weight() == 2**53 + 15


#: descriptions TaskTree rejects; ArrayTree must reject every one too.
_INVALID = [
    ([], []),  # empty
    ([-1, 0], [1]),  # size mismatch
    ([-1, -1], [1, 1]),  # two roots
    ([0, 1], [1, 1]),  # no root (cycle through everything)
    ([-1, 2, 1], [1, 1, 1]),  # cycle off the root
    ([-1, 5], [1, 1]),  # out-of-range parent
    ([-1, -3], [1, 1]),  # out-of-range (negative) parent
    ([-1, 0], [1, -2]),  # negative weight
    ([-1, 0], [1, 1.5]),  # non-integral weight
    ([-1, 0], [1, True]),  # boolean weight
]


class TestValidation:
    @pytest.mark.parametrize("parents,weights", _INVALID)
    def test_rejection_matches_task_tree(self, parents, weights):
        with pytest.raises(TreeError):
            TaskTree(parents, weights)
        with pytest.raises(TreeError):
            ArrayTree(parents, weights)

    def test_integral_float_weight_accepted_like_task_tree(self):
        # TaskTree accepts weights like 2.0 (integral floats); so must we.
        tree = TaskTree([-1, 0], [1, 2.0])
        at = ArrayTree([-1, 0], [1, 2.0])
        assert at == tree
        assert list(at.weights) == [1, 2]

    def test_huge_weight_falls_back_to_object_engine(self):
        # Beyond int64 the flat layout refuses, but the list cores run on
        # the TaskTree's own lists (arbitrary precision), exactly like the
        # object reference — the dispatch must not fail.
        from repro.algorithms.postorder import _best_postorder, postorder_min_mem

        tree = TaskTree([-1, 0], [2**70, 1])
        with pytest.raises(TreeError):
            ArrayTree.from_task_tree(tree)
        result = postorder_min_mem(tree)
        assert result.peak_memory == 2**70
        assert result == _best_postorder(tree, None)
