"""The list cores behind ``auto``: subtree FiF equivalence and dispatch pins.

* :func:`repro.core.kernels.simulate_fif_core` on *subtree* schedules of
  random expansion trees equals the object simulator — the I/O function
  (in first-eviction order, which the RecExpand victim rules see), its
  volume, the peak, and the ``InfeasibleSchedule`` text;
* ``auto`` on a small :class:`TaskTree` never builds an ``ArrayTree`` and
  never enters the object loops, while ``engine="object"`` still does.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms import liu, postorder
from repro.algorithms.liu import LiuSolver, min_peak_memory, opt_min_mem
from repro.algorithms.postorder import postorder_min_io, postorder_min_mem
from repro.core import simulator
from repro.core.arraytree import ArrayTree
from repro.core.expansion import ExpansionTree
from repro.core.kernels import simulate_fif_core
from repro.core.simulator import InfeasibleSchedule, simulate_fif
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


def _subtree(xt: ExpansionTree, root: int) -> list[int]:
    out = [root]
    for u in out:
        out.extend(xt.children[u])
    return out


def _random_subtree_schedule(rng: random.Random, xt: ExpansionTree, root: int):
    """A random topological order of ``root``'s subtree (root last)."""
    nodes = _subtree(xt, root)
    remaining = {v: len(xt.children[v]) for v in nodes}
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


def _object(tree, schedule, memory):
    r = simulate_fif(tree, schedule, memory, engine="object")
    return r.io, r.io_volume, r.peak_memory


class TestSubtreeFif:
    def test_expansion_tree_lists_stay_current(self):
        rng = random.Random(3)
        for _ in range(50):
            xt = _random_expansion_tree(rng)
            # CSR over the expansion tree's own child order (a splice
            # keeps the replaced child's slot)
            for v in range(xt.n):
                assert xt.cindex[xt.start[v] : xt.start[v + 1]] == xt.children[v]
            assert len(xt.start) == xt.n + 1
            assert xt.wbar == list(xt.as_task_tree().wbar)

    def test_core_equals_object_on_random_expansion_trees(self):
        rng = random.Random(20170208)
        compared = infeasible = evicting = 0
        for _ in range(300):
            xt = _random_expansion_tree(rng)
            root = rng.randrange(xt.n)
            schedules = [
                LiuSolver(xt).schedule(root),
                _random_subtree_schedule(rng, xt, root),
            ]
            lb = max(xt.wbar[v] for v in _subtree(xt, root))
            for schedule in schedules:
                for memory in (None, max(1, lb - 1), lb, lb + rng.randint(0, 9)):
                    want = _outcome(lambda: _object(xt, schedule, memory))
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
            schedule = LiuSolver(tree).schedule(root)
            memory = max(tree.wbar[v] for v in schedule) + rng.randint(0, 5)
            want = _outcome(lambda: _object(tree, schedule, memory))
            for engine in ("auto", "array"):
                r = simulate_fif(tree, schedule, memory, engine=engine)
                got = list(r.io.items()), r.io_volume, r.peak_memory
                assert got == want


class _ObjectPathEntered(AssertionError):
    pass


def _forbid(*_args, **_kwargs):
    raise _ObjectPathEntered


class _ForbiddenSolver:
    def __init__(self, *_args, **_kwargs):
        raise _ObjectPathEntered


@pytest.fixture
def object_paths_forbidden(monkeypatch):
    """Make every ArrayTree build and every object-engine loop raise."""
    monkeypatch.setattr(ArrayTree, "__init__", _forbid)
    monkeypatch.setattr(ArrayTree, "from_task_tree", _forbid)
    monkeypatch.setattr(postorder, "_best_postorder", _forbid)
    monkeypatch.setattr(simulator, "_simulate_fif_object", _forbid)
    monkeypatch.setattr(liu, "LiuSolver", _ForbiddenSolver)


def _small_tree() -> TaskTree:
    return _random_tree(random.Random(5), 200)


class TestAutoStaysOnCores:
    def test_auto_never_converts_or_enters_object_loops(self, object_paths_forbidden):
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
            lambda t, m: opt_min_mem(t, engine="object"),
            lambda t, m: min_peak_memory(t, engine="object"),
            lambda t, m: postorder_min_mem(t, engine="object"),
            lambda t, m: postorder_min_io(t, m, engine="object"),
            lambda t, m: simulate_fif(t, list(t.postorder()), m, engine="object"),
        ],
    )
    def test_explicit_object_engine_still_enters_them(
        self, object_paths_forbidden, call
    ):
        tree = _small_tree()
        with pytest.raises(_ObjectPathEntered):
            call(tree, tree.min_feasible_memory())

    def test_engine_scope_object_still_enters_them(self, object_paths_forbidden):
        from repro.core.engine import engine_scope

        tree = _small_tree()
        with engine_scope("object"), pytest.raises(_ObjectPathEntered):
            postorder_min_mem(tree)


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
