"""The list cores behind the public APIs: subtree FiF equivalence and dispatch pins.

* :func:`repro.core.kernels.simulate_fif_core` on a *subtree* schedule
  of a random expansion tree answers like FiF on that subtree built as
  its own :class:`TaskTree` (ids mapped back) — the I/O function (in
  first-eviction order, which the RecExpand victim rules see), its
  volume, the peak, and the ``InfeasibleSchedule`` text;
* an :class:`ExpansionTree` answers like its ``as_task_tree()``;
* a small :class:`TaskTree` or an :class:`ExpansionTree` never builds
  an ``ArrayTree``, and traced FiF runs and child-key postorders run
  the list cores too.
"""

from __future__ import annotations

import random
import re

import pytest

from repro.algorithms.liu import min_peak_memory, opt_min_mem
from repro.algorithms.postorder import (
    postorder_min_io,
    postorder_min_mem,
    postorder_with_child_key,
)
from repro.core import kernels
from repro.core.arraytree import ArrayTree
from repro.core.expansion import ExpansionTree
from repro.core.kernels import flatten_rope, liu_fill, simulate_fif_core
from repro.core.simulator import (
    InfeasibleSchedule,
    schedule_peak_memory,
    simulate_fif,
)
from repro.core.tree import TaskTree


def _random_tree(rng: random.Random, n: int) -> TaskTree:
    parents = [-1] + [rng.randrange(i) for i in range(1, n)]
    return TaskTree(parents, [rng.randint(0, 9) for _ in range(n)])


def _random_expansion_tree(rng: random.Random) -> ExpansionTree:
    xt = ExpansionTree(_random_tree(rng, rng.randint(1, 40)))
    for _ in range(rng.randint(0, 12)):
        v = rng.randrange(xt.n)
        if xt.weights[v] > 0:
            xt.expand(v, rng.randint(1, xt.weights[v]))
    return xt


def _subtree_schedule(tree, root: int) -> list[int]:
    """Liu's schedule of ``root``'s subtree, from a ``liu_fill`` over it."""
    lists = tree.core_lists()
    segs: list = [None] * tree.n
    order = reversed(_subtree(tree, root))
    liu_fill(lists.weights, lists.start, lists.cindex, order, segs)
    schedule: list[int] = []
    for _hill, _valley, nodes in segs[root]:
        flatten_rope(nodes, schedule)
    return schedule


def _children(tree, v: int) -> list[int]:
    lists = tree.core_lists()
    return list(lists.cindex[lists.start[v] : lists.start[v + 1]])


def _subtree(tree, root: int) -> list[int]:
    out = [root]
    for u in out:
        out.extend(_children(tree, u))
    return out


def _random_subtree_schedule(rng: random.Random, xt: ExpansionTree, root: int):
    """A random topological order of ``root``'s subtree (root last)."""
    nodes = _subtree(xt, root)
    remaining = {v: len(_children(xt, v)) for v in nodes}
    ready = [v for v in nodes if remaining[v] == 0]
    schedule = []
    while ready:
        v = ready.pop(rng.randrange(len(ready)))
        schedule.append(v)
        p = xt.parents[v]
        if v != root and p != -1:
            remaining[p] -= 1
            if remaining[p] == 0:
                ready.append(p)
    assert schedule[-1] == root and len(schedule) == len(nodes)
    return schedule


def _outcome(fn):
    try:
        io, volume, peak = fn()
    except InfeasibleSchedule as exc:
        return "infeasible", str(exc)
    return list(io.items()), volume, peak


def _core(xt, schedule, memory):
    return simulate_fif_core(
        xt.n, xt.weights, xt.parents, xt.start, xt.cindex, xt.wbar,
        schedule, memory,
    )


def _standalone(tree, root: int, schedule, memory):
    """FiF on ``root``'s subtree built as its own ``TaskTree``, ids mapped back.

    Local ids follow the global ones in ascending order, so FiF's
    tie-break between equal-priority outputs (the lower id) is the same
    on both trees.
    """
    nodes = sorted(_subtree(tree, root))
    local = {v: i for i, v in enumerate(nodes)}
    sub = TaskTree(
        [-1 if v == root else local[tree.parents[v]] for v in nodes],
        [tree.weights[v] for v in nodes],
    )
    outcome = _outcome(
        lambda: kernels.simulate_fif(sub, [local[v] for v in schedule], memory)
    )
    if outcome[0] == "infeasible":
        return "infeasible", re.sub(
            r"node (\d+)", lambda m: f"node {nodes[int(m.group(1))]}", outcome[1]
        )
    io, volume, peak = outcome
    return [(nodes[k], a) for k, a in io], volume, peak


def _assert_root_first(xt: ExpansionTree) -> None:
    pos = {v: i for i, v in enumerate(xt.topo)}
    assert xt.topo[0] == xt.root and len(pos) == len(xt.topo) == xt.n
    assert all(pos[xt.parents[v]] < pos[v] for v in range(xt.n) if v != xt.root)


class TestSubtreeFif:
    def test_expansion_tree_lists_stay_current(self):
        rng = random.Random(3)
        for _ in range(50):
            xt = _random_expansion_tree(rng)
            # CSR over the expansion tree's own child order (a splice
            # keeps the replaced child's slot)
            for v in range(xt.n):
                kids = xt.cindex[xt.start[v] : xt.start[v + 1]]
                assert all(xt.parents[c] == v for c in kids)
            assert len(xt.start) == xt.n + 1
            assert len(xt.cindex) == xt.n - 1
            assert xt.wbar == list(xt.as_task_tree().wbar)
            # the tree is its own core view, with a current root-first
            # order before and after a further splice
            assert xt.core_lists() is xt
            _assert_root_first(xt)
            v = rng.randrange(xt.n)
            if xt.weights[v] > 0:
                xt.expand(v, xt.weights[v])
                _assert_root_first(xt)

    def test_core_equals_standalone_subtree_on_random_expansion_trees(self):
        rng = random.Random(20170208)
        compared = infeasible = evicting = 0
        for _ in range(300):
            xt = _random_expansion_tree(rng)
            root = rng.randrange(xt.n)
            schedules = [
                _subtree_schedule(xt, root),
                _random_subtree_schedule(rng, xt, root),
            ]
            lb = max(xt.wbar[v] for v in _subtree(xt, root))
            for schedule in schedules:
                for memory in (None, max(1, lb - 1), lb, lb + rng.randint(0, 9)):
                    want = _standalone(xt, root, schedule, memory)
                    got = _outcome(lambda: _core(xt, schedule, memory))
                    assert got == want
                    compared += 1
                    infeasible += want[0] == "infeasible"
                    evicting += want[0] != "infeasible" and want[1] > 0
        assert compared == 2400 and infeasible > 50 and evicting > 50

    def test_public_simulator_subtree_schedules_match(self):
        rng = random.Random(11)
        for _ in range(100):
            tree = _random_tree(rng, rng.randint(1, 60))
            root = rng.randrange(tree.n)
            schedule = _subtree_schedule(tree, root)
            memory = max(tree.wbar[v] for v in schedule) + rng.randint(0, 5)
            want = _standalone(tree, root, schedule, memory)
            for view in (tree, ArrayTree.from_task_tree(tree)):
                r = simulate_fif(view, schedule, memory)
                got = list(r.io.items()), r.io_volume, r.peak_memory
                assert got == want


class TestExpansionTreeCores:
    """An expanded tree runs the list cores and answers like a ``TaskTree``."""

    def test_random_expanded_trees(self):
        rng = random.Random(23)
        for _ in range(300):
            xt = _random_expansion_tree(rng)
            frozen = xt.as_task_tree()
            schedule, peak = opt_min_mem(xt)
            assert peak == min_peak_memory(frozen)
            assert schedule_peak_memory(xt, schedule) == peak
            lb = max(xt.wbar)
            other = _random_subtree_schedule(rng, xt, xt.root)
            for s in (schedule, other):
                for memory in (None, lb, lb + rng.randint(0, 9)):
                    want = simulate_fif(frozen, s, memory, trace=True)
                    got = simulate_fif(xt, s, memory, trace=True)
                    assert got == want
                    assert list(got.io) == list(want.io)  # eviction order


class TestLiuHillIsFifPeak:
    """Liu's top hill is the unbounded FiF peak of its own schedule.

    RecExpand skips its residual FiF pass when the final root hill fits
    M; that is exact only because of this identity.
    """

    def test_on_cross_validation_trees(self):
        import numpy as np

        from .test_kernel_crossval import BASE_SEED, FAMILIES, SIZE_BANDS, _make_tree

        checked = 0
        for f, family in enumerate(FAMILIES):
            for b, (count, (lo, hi)) in enumerate(SIZE_BANDS):
                for k in range(min(count, 4)):
                    rng = np.random.default_rng(BASE_SEED + f * 10_000 + b * 100 + k)
                    tree = _make_tree(family, int(rng.integers(lo, hi + 1)), rng)
                    schedule, hill = opt_min_mem(tree)
                    lists = tree.core_lists()
                    _io, volume, peak = simulate_fif_core(
                        tree.n, lists.weights, lists.parents, lists.start,
                        lists.cindex, lists.wbar, schedule, None,
                    )
                    assert (volume, peak) == (0, hill)
                    checked += 1
        assert checked == len(FAMILIES) * 10

    def test_on_every_subtree_of_random_expansion_trees(self):
        rng = random.Random(20170208)
        for _ in range(150):
            xt = _random_expansion_tree(rng)
            topo = _subtree(xt, xt.root)
            segs: list = [None] * xt.n
            liu_fill(xt.weights, xt.start, xt.cindex, reversed(topo), segs, keep=True)
            for r in topo:
                schedule: list[int] = []
                for _hill, _valley, nodes in segs[r]:
                    flatten_rope(nodes, schedule)
                _io, volume, peak = _core(xt, schedule, None)
                assert (volume, peak) == (0, segs[r][0][0])


class _ArrayTreeBuilt(AssertionError):
    pass


def _forbid(*_args, **_kwargs):
    raise _ArrayTreeBuilt


@pytest.fixture
def array_builds_forbidden(monkeypatch):
    """Make every ArrayTree build raise."""
    monkeypatch.setattr(ArrayTree, "__init__", _forbid)
    monkeypatch.setattr(ArrayTree, "from_task_tree", _forbid)


@pytest.fixture
def core_calls(monkeypatch):
    """Count the calls into the postorder and FiF list cores."""
    calls = {"best_postorder_core": 0, "simulate_fif_core": 0}
    for name in calls:
        def counted(*args, _real=getattr(kernels, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(kernels, name, counted)
    return calls


def _small_tree() -> TaskTree:
    return _random_tree(random.Random(5), 200)


class TestAutoStaysOnCores:
    def test_auto_never_converts_or_enters_object_loops(self, array_builds_forbidden):
        from repro.experiments.registry import get_algorithm

        tree = _small_tree()
        memory = (tree.min_feasible_memory() + min_peak_memory(tree)) // 2
        schedule, _peak = opt_min_mem(tree)
        postorder_min_mem(tree)
        postorder_min_io(tree, memory)
        simulate_fif(tree, schedule, memory)
        simulate_fif(tree, schedule[: len(schedule) // 2], memory)
        for name in ("OptMinMem", "PostOrderMinIO", "PostOrderMinMem"):
            get_algorithm(name)(tree, memory)

    @pytest.mark.parametrize(
        "call",
        [
            lambda xt, m: opt_min_mem(xt),
            lambda xt, m: min_peak_memory(xt),
            lambda xt, m: simulate_fif(xt, list(xt.base.postorder()), m),
        ],
    )
    def test_expansion_trees_stay_on_cores(self, array_builds_forbidden, call):
        tree = _small_tree()
        memory = (tree.min_feasible_memory() + min_peak_memory(tree)) // 2
        xt = ExpansionTree(tree)
        call(xt, memory)
        v = next(v for v in range(xt.n) if xt.weights[v] > 0)
        xt.expand(v, 1)  # a splice: the next call rebuilds the topo list
        call(xt, memory)

    @pytest.mark.parametrize(
        "call",
        [
            lambda t, m: postorder_with_child_key(t, m, "A-w"),
            lambda t, m: postorder_with_child_key(t, m, "input-order"),
            lambda t, m: simulate_fif(
                ExpansionTree(t), list(t.postorder()), m, trace=True
            ),
            lambda t, m: simulate_fif(t, list(t.postorder()), m, trace=True),
        ],
    )
    def test_tree_protocol_inputs_still_enter_them(
        self, array_builds_forbidden, core_calls, call
    ):
        """Child-key postorders and traced FiF enter the list cores: no
        ``ArrayTree`` build and exactly one core call."""
        tree = _small_tree()
        call(tree, tree.min_feasible_memory())
        assert sum(core_calls.values()) == 1


class TestCoreListsAreShared:
    def test_task_tree_lists_survive_every_solver(self):
        from repro.algorithms.rec_expand import full_rec_expand, rec_expand

        tree = _random_tree(random.Random(11), 60)
        lists = tree.core_lists()
        snapshot = tuple(tuple(col) for col in lists)
        assert all(isinstance(col, tuple) for col in lists)

        _schedule, peak = opt_min_mem(tree)
        memory = max(tree.min_feasible_memory(), peak - 3)
        result = postorder_min_io(tree, memory)
        simulate_fif(tree, result.schedule, memory)
        postorder_min_mem(tree)
        rec_expand(tree, memory)
        full_rec_expand(tree, memory)

        assert tree.core_lists() is lists
        assert tuple(tuple(col) for col in lists) == snapshot

    def test_array_tree_view_matches_task_tree(self):
        tree = _random_tree(random.Random(12), 50)
        view = ArrayTree.from_task_tree(tree).core_lists()
        for name, col in zip(tree.core_lists()._fields, tree.core_lists()):
            assert list(getattr(view, name)) == list(col), name
        with pytest.raises(AttributeError):
            view.children
