"""Randomized cross-validation of the list cores against the object references.

A seeded fuzzer draws ~200 trees across every family and size band the
repository generates — uniform binary and plane trees, preferential
attachment, nested-dissection-shaped, chains, stars, caterpillars,
uniform random attachment with zero weights — and asserts that the list
cores (run on an :class:`ArrayTree`) and the object reference
implementations (``postorder._best_postorder``,
``simulator._simulate_fif_object``, called by name) are **byte
identical** on all of them:

* ``postorder_min_mem`` / ``postorder_min_io``: schedule, per-subtree
  storage ``S_i``, peak, predicted ``V_root``;
* ``opt_min_mem`` (Liu's segment solver, which has no object twin): the
  same schedule and peak on a ``TaskTree`` and an ``ArrayTree``, a peak
  equal to the rope-free ``liu_peak_core``'s and to the object FiF
  peak of its own schedule;
* the FiF simulator: the full I/O function (which node pays how much),
  total volume, and peak, on every schedule above, at several memory
  bounds across the I/O regime;
* the paper's invariant: ``postorder_min_io``'s predicted ``V_root``
  equals the FiF simulation of its schedule — on *both* paths.

Exact equality (not "close") is the point: the list cores are the only
path behind the public APIs, so any divergence is a bug.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.liu import min_peak_memory, opt_min_mem
from repro.algorithms.postorder import (
    _best_postorder,
    postorder_min_io,
    postorder_min_mem,
)
from repro.core.arraytree import ArrayTree
from repro.core.simulator import _simulate_fif_object, simulate_fif
from repro.core.tree import TaskTree
from repro.datasets.synth import (
    deep_random_tree,
    huge_chain,
    huge_star,
    nested_dissection_shaped_tree,
    random_attachment_tree,
    random_binary_tree,
    random_plane_tree,
    random_weights,
)

BASE_SEED = 20170208  # match the SYNTH dataset's anchor seed


def _uniform_attachment(n, rng, weight_range=(0, 9)):
    """node i -> uniform earlier parent; includes zero weights."""
    parents = [-1] + [int(rng.integers(0, i)) for i in range(1, n)]
    low, high = weight_range
    weights = [int(w) for w in rng.integers(low, high + 1, size=n)]
    return TaskTree(parents, weights)


def _make_tree(family: str, n: int, rng: np.random.Generator) -> TaskTree:
    if family == "binary":
        t = random_binary_tree(n, rng)
        return t.with_weights(random_weights(n, rng))
    if family == "plane":
        t = random_plane_tree(n, rng)
        return t.with_weights(random_weights(n, rng))
    if family == "uniform0":  # zero weights allowed
        return _uniform_attachment(n, rng)
    if family == "attachment":
        return random_attachment_tree(n, rng).to_task_tree()
    if family == "nd":
        return nested_dissection_shaped_tree(n, rng).to_task_tree()
    if family == "chain":
        return huge_chain(n, rng).to_task_tree()
    if family == "star":
        return huge_star(n, rng).to_task_tree()
    if family == "caterpillar":
        return deep_random_tree(n, max(1, n // 2), rng).to_task_tree()
    raise AssertionError(family)


FAMILIES = (
    "binary",
    "plane",
    "uniform0",
    "attachment",
    "nd",
    "chain",
    "star",
    "caterpillar",
)

#: (number of instances, node-count band) per family — 8 * 25 = 200
#: fuzzed trees, a handful of them above the auto-dispatch threshold.
SIZE_BANDS = ((18, (1, 90)), (5, (91, 400)), (2, (401, 1400)))


def _memory_grid(tree: TaskTree) -> list[int]:
    lb = tree.min_feasible_memory()
    peak = min_peak_memory(tree)
    mid = (lb + peak) // 2
    return sorted({max(1, lb), max(1, mid), max(1, peak - 1), peak + 3})


def _assert_simulations_match(tree, at, schedule, memory):
    r_obj = _simulate_fif_object(tree, schedule, memory, False)
    r_arr = simulate_fif(at, schedule, memory)
    assert dict(r_obj.io) == dict(r_arr.io)
    assert r_obj.io_volume == r_arr.io_volume
    assert r_obj.peak_memory == r_arr.peak_memory
    return r_obj.io_volume


def _crossval_one(tree: TaskTree) -> None:
    at = ArrayTree.from_task_tree(tree)

    mm_obj = _best_postorder(tree, None)
    mm_arr = postorder_min_mem(at)
    assert mm_obj == mm_arr

    liu_schedule, liu_peak = opt_min_mem(at)
    assert opt_min_mem(tree) == (liu_schedule, liu_peak)
    assert sorted(liu_schedule) == list(range(tree.n))
    assert liu_peak == min_peak_memory(at)
    unbounded = _simulate_fif_object(tree, liu_schedule, None, False)
    assert unbounded.peak_memory == liu_peak

    for memory in _memory_grid(tree):
        if memory < tree.min_feasible_memory():
            continue
        io_obj = _best_postorder(tree, memory)
        io_arr = postorder_min_io(at, memory)
        assert io_obj == io_arr

        # FiF equality on every schedule both paths produced, plus the
        # headline invariant V_root == simulated volume on both paths.
        simulated = _assert_simulations_match(tree, at, io_obj.schedule, memory)
        assert io_obj.predicted_io == simulated
        assert io_arr.predicted_io == simulated
        _assert_simulations_match(tree, at, mm_obj.schedule, memory)
        _assert_simulations_match(tree, at, liu_schedule, memory)


@pytest.mark.parametrize("family", FAMILIES)
def test_engines_byte_identical(family):
    instance = 0
    family_index = FAMILIES.index(family)
    for band_index, (band, (lo, hi)) in enumerate(SIZE_BANDS):
        for k in range(band):
            # Stable arithmetic seed (string hashing is randomized).
            seed = BASE_SEED + family_index * 10_000 + band_index * 100 + k
            rng = np.random.default_rng(seed)
            n = int(rng.integers(lo, hi + 1))
            tree = _make_tree(family, n, rng)
            _crossval_one(tree)
            instance += 1
    assert instance == sum(band for band, _ in SIZE_BANDS)


def test_unbounded_memory_simulation_matches():
    rng = np.random.default_rng(7)
    tree = _make_tree("binary", 300, rng)
    at = ArrayTree.from_task_tree(tree)
    schedule = _best_postorder(tree, None).schedule
    r_obj = _simulate_fif_object(tree, schedule, None, False)
    r_arr = simulate_fif(at, schedule, None)
    assert r_obj.peak_memory == r_arr.peak_memory
    assert r_obj.io_volume == r_arr.io_volume == 0


def test_infeasible_memory_raises_identically():
    from repro.core.simulator import InfeasibleSchedule

    rng = np.random.default_rng(11)
    tree = _make_tree("plane", 60, rng)
    at = ArrayTree.from_task_tree(tree)
    schedule = _best_postorder(tree, None).schedule
    too_small = tree.min_feasible_memory() - 1
    if too_small < 1:
        pytest.skip("tree with zero LB")
    with pytest.raises(InfeasibleSchedule):
        _simulate_fif_object(tree, schedule, too_small, False)
    with pytest.raises(InfeasibleSchedule):
        simulate_fif(at, schedule, too_small)


def test_auto_dispatch_equals_forced_engines():
    """The public entry point returns what the object reference and the
    core on an ``ArrayTree`` return."""
    rng = np.random.default_rng(23)
    for n in (40, 700):
        tree = _make_tree("binary", n, rng)
        memory = max(1, (tree.min_feasible_memory() + min_peak_memory(tree)) // 2)
        auto = postorder_min_io(tree, memory)
        assert auto == _best_postorder(tree, memory)
        assert auto == postorder_min_io(ArrayTree.from_task_tree(tree), memory)
