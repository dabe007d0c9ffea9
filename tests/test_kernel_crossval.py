"""Randomized cross-validation of the list cores against the paper's invariants.

A seeded fuzzer draws 200 trees across every family and size band the
repository generates — uniform binary and plane trees, preferential
attachment, nested-dissection-shaped, chains, stars, caterpillars,
uniform random attachment with zero weights.  On each tree, at several
memory bounds across the I/O regime, it runs ``postorder_min_mem``,
``postorder_min_io``, ``opt_min_mem`` and the FiF simulator on the
schedules they return, and asserts:

* a :class:`TaskTree` and the :class:`ArrayTree` of the same columns
  give byte-identical answers (schedule, ``S_i``, peak, ``V_root``,
  the I/O function in eviction order);
* ``postorder_min_io``'s predicted ``V_root`` equals the FiF volume of
  its schedule;
* each postorder's predicted peak equals the unbounded FiF peak of its
  schedule, and the schedule is a postorder;
* Liu's top hill is the FiF peak of its own schedule;
* every FiF traversal passes ``validate``;
* ``io_lower_bound`` is at most every strategy's I/O.

On the smallest band, the page-level Belady pager of
:mod:`repro.io.pager` (page size 1) measures the same write volume as
FiF.  Optimality itself is checked against enumeration on small trees
(``test_theorems``, ``test_postorder``, ``test_liu``), and the exact
answers on these trees are frozen in the golden corpus.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.liu import min_peak_memory, opt_min_mem
from repro.algorithms.postorder import postorder_min_io, postorder_min_mem
from repro.analysis.io_bounds import io_lower_bound
from repro.core.arraytree import ArrayTree
from repro.core.simulator import InfeasibleSchedule, schedule_peak_memory, simulate_fif
from repro.core.traversal import Traversal, is_postorder, validate
from repro.core.tree import TaskTree
from repro.io.pager import paged_io
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


def _fif(tree, at, schedule, memory):
    """FiF on both tree views: byte-identical, and a valid traversal."""
    r_tree = simulate_fif(tree, schedule, memory)
    r_arr = simulate_fif(at, schedule, memory)
    assert r_arr == r_tree
    assert list(r_arr.io) == list(r_tree.io)  # eviction order
    validate(tree, Traversal(tuple(schedule), r_tree.io_list(tree.n)), memory)
    return r_tree


def _assert_postorder(tree, result) -> None:
    assert is_postorder(tree, result.schedule)
    assert result.peak_memory == schedule_peak_memory(tree, result.schedule)
    assert result.peak_memory == result.storage[tree.root]


def _crossval_one(tree: TaskTree, *, pager: bool = False) -> None:
    at = ArrayTree.from_task_tree(tree)

    minmem = postorder_min_mem(tree)
    assert postorder_min_mem(at) == minmem
    _assert_postorder(tree, minmem)
    assert minmem.predicted_io == 0

    liu_schedule, liu_peak = opt_min_mem(at)
    assert opt_min_mem(tree) == (liu_schedule, liu_peak)
    assert sorted(liu_schedule) == list(range(tree.n))
    assert liu_peak == min_peak_memory(at) == min_peak_memory(tree)
    assert liu_peak <= minmem.peak_memory
    unbounded = simulate_fif(tree, liu_schedule, None)
    assert (unbounded.io_volume, unbounded.peak_memory) == (0, liu_peak)

    for memory in _memory_grid(tree):
        if memory < tree.min_feasible_memory():
            continue
        min_io = postorder_min_io(tree, memory)
        assert postorder_min_io(at, memory) == min_io
        _assert_postorder(tree, min_io)

        schedules = (min_io.schedule, minmem.schedule, liu_schedule)
        volumes = [_fif(tree, at, s, memory).io_volume for s in schedules]
        assert min_io.predicted_io == volumes[0]
        assert io_lower_bound(tree, memory).value <= min(volumes)
        if pager:
            for schedule, volume in zip(schedules, volumes):
                paged = paged_io(tree, schedule, memory, page_size=1, policy="belady")
                assert paged.write_pages == volume


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
            _crossval_one(tree, pager=band_index == 0)
            instance += 1
    assert instance == sum(band for band, _ in SIZE_BANDS)


def test_unbounded_memory_simulation_matches():
    """With no bound, FiF evicts nothing and peaks at the postorder's ``S_root``."""
    rng = np.random.default_rng(7)
    tree = _make_tree("binary", 300, rng)
    at = ArrayTree.from_task_tree(tree)
    minmem = postorder_min_mem(tree)
    r_tree = simulate_fif(tree, minmem.schedule, None)
    r_arr = simulate_fif(at, minmem.schedule, None)
    assert r_tree == r_arr
    assert r_tree.io_volume == 0 and not r_tree.io
    assert r_tree.peak_memory == minmem.peak_memory


def test_infeasible_memory_raises_identically():
    rng = np.random.default_rng(11)
    tree = _make_tree("plane", 60, rng)
    at = ArrayTree.from_task_tree(tree)
    schedule = postorder_min_mem(tree).schedule
    too_small = tree.min_feasible_memory() - 1
    if too_small < 1:
        pytest.skip("tree with zero LB")
    messages = []
    for view in (tree, at):
        with pytest.raises(InfeasibleSchedule) as err:
            simulate_fif(view, schedule, too_small)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("node ") and f"> M={too_small}" in messages[0]


def test_auto_dispatch_equals_forced_engines():
    """The public entry point answers the same on a ``TaskTree`` and on
    the ``ArrayTree`` of its columns, with ``V_root`` equal to FiF's."""
    rng = np.random.default_rng(23)
    for n in (40, 700):
        tree = _make_tree("binary", n, rng)
        memory = max(1, (tree.min_feasible_memory() + min_peak_memory(tree)) // 2)
        auto = postorder_min_io(tree, memory)
        assert auto == postorder_min_io(ArrayTree.from_task_tree(tree), memory)
        assert auto.predicted_io == simulate_fif(tree, auto.schedule, memory).io_volume
