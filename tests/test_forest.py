"""Forest-layer equivalence: batched solving must be byte-identical.

A seeded property harness draws 200+ trees across every family the
repository generates (the same family pool as the kernel-engine
cross-validation), packs them into :class:`ArrayForest` batches through
every constructor, and asserts that

* each member's derived buffers (CSR children, topo, wbar, totals) are
  **byte-identical** to a standalone ``ArrayTree`` of the same columns;
* every forest sweep — best postorders (loop *and* vectorised engine),
  Liu peaks/schedules, FiF simulation, full registry-strategy
  traversals — reproduces the per-tree kernels and registry exactly:
  same schedules, same I/O functions and volumes, same peaks;
* the wire form (``pack``/``from_packed``) and the buffer-digest cache
  keys are faithful to the identity columns;
* invalid forests fail with the same ``TreeError`` vocabulary as the
  per-tree constructors, naming the offending tree;
* ``forest_validate`` raises exactly what scalar ``validate`` raises for
  the first failing member, under a seeded mutation fuzzer, through
  both the flat-column and the list input, and Liu's memoised sweep
  runs once per forest;
* Liu's depth-capped sweep gives the full sweep's peaks and schedules
  at every cap, and ``forest_traversals``' read-only columns hold the
  registry's traversals.

Exact equality (never "close") is the contract: the forest path
replaces per-tree dispatch in the batch engine and the service, so any
divergence is a bug.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import kernels
from repro.core import forest_kernels as fk
from repro.core.arraytree import ArrayTree
from repro.core.forest import ArrayForest
from repro.core.simulator import InfeasibleSchedule
from repro.core.traversal import InvalidTraversal, Traversal, validate
from repro.core.tree import TaskTree, TreeError
from repro.datasets.store import cache_key_buffers
from repro.experiments.registry import get_algorithm

from tests.test_kernel_crossval import FAMILIES, _make_tree

BASE_SEED = 20170208
NUM_TREES = 208  # a multiple of the family count; >= 200 per the contract


def _mixed_trees():
    """208 seeded trees cycling through every family, sizes 1–400."""
    trees = []
    for i in range(NUM_TREES):
        family = FAMILIES[i % len(FAMILIES)]
        rng = np.random.default_rng(BASE_SEED + 7919 * i)
        n = int(rng.integers(1, 401))
        trees.append(_make_tree(family, n, rng))
    return trees


@pytest.fixture(scope="module")
def trees():
    return _mixed_trees()


@pytest.fixture(scope="module")
def ats(trees):
    return [ArrayTree.from_task_tree(t) for t in trees]


@pytest.fixture(scope="module")
def forest(trees):
    return ArrayForest.from_pairs(
        [(list(t.parents), list(t.weights)) for t in trees]
    )


@pytest.fixture(scope="module")
def mems(ats):
    """One mid-regime bound per tree (clamped feasible)."""
    out = []
    for at in ats:
        lb = at.min_feasible_memory()
        peak = kernels.liu_peak(at)
        out.append(max(max(1, lb), (lb + peak - 1) // 2))
    return out


def _assert_same_buffers(tk: ArrayTree, at: ArrayTree):
    assert tk._parents == at._parents
    assert tk._weights == at._weights
    assert tk._child_start == at._child_start
    assert tk._child_index == at._child_index
    assert tk._topo == at._topo
    assert tk._wbar == at._wbar
    assert tk._root == at._root
    assert tk._total_weight == at._total_weight


class TestConstruction:
    def test_every_constructor_matches_arraytree(self, trees, ats, forest):
        from_trees = ArrayForest.from_trees(trees)
        from_packed = ArrayForest.from_packed(forest.pack())
        for f in (forest, from_trees, from_packed):
            assert f.n_trees == len(trees)
            assert f.total_nodes == sum(t.n for t in trees)
            for k, at in enumerate(ats):
                _assert_same_buffers(f.tree(k), at)

    def test_task_tree_members_round_trip(self, trees, forest):
        for k in (0, 7, NUM_TREES - 1):
            assert forest.task_tree(k) == trees[k]

    def test_sizes_and_offsets(self, trees, forest):
        assert forest.sizes().tolist() == [t.n for t in trees]
        assert int(forest.offsets[0]) == 0
        assert len(forest) == len(trees)

    def test_pack_roundtrip_is_exact(self, forest):
        blob = forest.pack()
        again = ArrayForest.from_packed(blob)
        assert np.array_equal(again._parents, forest._parents)
        assert np.array_equal(again._weights, forest._weights)
        assert again.pack() == blob

    def test_column_buffers_digest_stability(self, forest):
        params = {"kind": "t", "version": 0}
        a = cache_key_buffers(params, forest.column_buffers())
        b = cache_key_buffers(
            params,
            {
                "offsets": forest.offsets.tolist(),
                "parents": forest._parents.tolist(),
                "weights": forest._weights.tolist(),
            },
        )
        assert a == b  # container-independent digests

    def test_empty_forest(self):
        f = ArrayForest([0], [], [])
        assert f.n_trees == 0 and f.total_nodes == 0
        assert fk.forest_lower_bounds(f) == []
        assert fk.forest_best_postorders(f) == []

    def test_single_node_trees(self):
        f = ArrayForest([0, 1, 2], [-1, -1], [5, 9])
        assert fk.forest_lower_bounds(f) == [5, 9]
        assert fk.forest_min_peaks(f) == [5, 9]
        assert fk.forest_best_postorders(f, [7, 11]) == [
            ([0], [5], [0]),
            ([0], [9], [0]),
        ]


class TestValidation:
    @pytest.mark.parametrize(
        "offsets, parents, weights, fragment",
        [
            ([0, 2], [-1, -1, 0], [1, 1, 1], "columns disagree"),
            ([0, 0], [], [], "at least one node"),
            ([0, 3], [-1, -1, 0], [1, 1, 1], "tree 0: more than one root"),
            ([0, 1, 2], [-1, 0], [1, 1], "tree 1: no root"),
            ([0, 2], [-1, 5], [1, 1], "out-of-range parent"),
            ([0, 2], [-1, 0], [1, -5], "negative"),
            # 2-cycle behind the root
            ([0, 3], [-1, 2, 1], [1, 1, 1], "tree 0: graph is not connected"),
            # power-of-two cycle (pointer doubling converges to identity)
            ([0, 1, 6], [-1, -1, 4, 1, 2, 3], [1] * 6,
             "tree 1: graph is not connected"),
        ],
    )
    def test_rejects(self, offsets, parents, weights, fragment):
        with pytest.raises(TreeError, match=fragment):
            ArrayForest(offsets, parents, weights)

    def test_per_tree_weight_budget(self):
        with pytest.raises(TreeError, match="int64 budget"):
            ArrayForest([0, 2], [-1, 0], [2**62, 2**62])

    def test_forest_wide_weight_budget(self):
        # each tree individually fits; the forest total does not
        with pytest.raises(TreeError, match="forest-wide"):
            ArrayForest([0, 1, 2], [-1, -1], [2**61 + 2**60] * 2)

    def test_truncated_pack_rejected(self, forest):
        with pytest.raises(TreeError, match="packed forest"):
            ArrayForest.from_packed(forest.pack()[:-8])


class TestKernelEquivalence:
    @pytest.mark.parametrize("vectorize", [False, True])
    def test_best_postorders(self, ats, forest, mems, vectorize):
        mm = fk.forest_best_postorders(forest, None, vectorize=vectorize)
        io = fk.forest_best_postorders(forest, mems, vectorize=vectorize)
        for k, at in enumerate(ats):
            assert mm[k] == kernels.best_postorder(at, None)
            assert io[k] == kernels.best_postorder(at, mems[k])

    @pytest.mark.parametrize("vectorize", [False, True])
    def test_flat_form_matches_lists(self, forest, mems, vectorize):
        per_tree = fk.forest_best_postorders(forest, mems, vectorize=vectorize)
        sched, storage, vio = fk.forest_best_postorders_flat(
            forest, mems, vectorize=vectorize
        )
        off = forest.offsets.tolist()
        for k, (s, st, v) in enumerate(per_tree):
            a, b = off[k], off[k + 1]
            assert sched[a:b].tolist() == s
            assert storage[a:b].tolist() == st
            assert vio[a:b].tolist() == v
        no_sched = fk.forest_best_postorders_flat(
            forest, mems, vectorize=vectorize, schedules=False
        )
        assert no_sched[0] is None
        assert np.array_equal(no_sched[1], storage)
        assert np.array_equal(no_sched[2], vio)

    @pytest.mark.parametrize("vectorize", [False, True])
    def test_lower_bounds_and_peaks(self, ats, forest, vectorize):
        lbs = fk.forest_lower_bounds(forest)
        peaks = fk.forest_min_peaks(forest, vectorize=vectorize)
        bounds = fk.forest_memory_bounds(forest)
        for k, at in enumerate(ats):
            assert lbs[k] == at.min_feasible_memory()
            assert peaks[k] == kernels.liu_peak(at)
            assert bounds[k] == (lbs[k], peaks[k])

    @pytest.mark.parametrize("vectorize", [False, True])
    def test_opt_min_mem(self, ats, forest, vectorize):
        out = fk.forest_opt_min_mem(forest, vectorize=vectorize)
        for k, (schedule, peak) in enumerate(out):
            assert (schedule, peak) == kernels.liu_schedule(ats[k])

    @pytest.mark.parametrize("vectorize", [False, True])
    def test_simulate_fif(self, ats, forest, mems, vectorize):
        schedules = [s for s, _st, _v in fk.forest_best_postorders(forest, mems)]
        sims = fk.forest_simulate_fif(
            forest, schedules, mems, vectorize=vectorize
        )
        for k, at in enumerate(ats):
            assert sims[k] == kernels.simulate_fif(at, schedules[k], mems[k])

    @pytest.mark.parametrize("vectorize", [False, True])
    def test_simulate_fif_infeasible_matches(self, ats, forest, vectorize):
        k = next(
            k for k, at in enumerate(ats) if at.min_feasible_memory() > 1
        )
        schedules = [
            s for s, _st, _v in fk.forest_best_postorders(forest, None)
        ]
        mems = [None] * forest.n_trees
        mems[k] = ats[k].min_feasible_memory() - 1
        with pytest.raises(InfeasibleSchedule) as exc:
            fk.forest_simulate_fif(forest, schedules, mems, vectorize=vectorize)
        # same message as the per-tree kernel, both engines
        with pytest.raises(InfeasibleSchedule) as ref:
            kernels.simulate_fif(ats[k], schedules[k], mems[k])
        assert str(exc.value) == str(ref.value)

    def test_partial_schedule_error_names_the_tree(self, forest, mems):
        schedules = [
            s for s, _st, _v in fk.forest_best_postorders(forest, mems)
        ]
        schedules[5] = schedules[5][:-1]
        n = forest.sizes().tolist()[5]
        with pytest.raises(
            ValueError,
            match=rf"tree 5: .*expected {n} nodes, got {n - 1}",
        ):
            fk.forest_simulate_fif(forest, schedules, mems)

    def test_bool_memory_bounds_rejected(self, forest, mems):
        with pytest.raises(TypeError, match="bool"):
            fk.forest_best_postorders(forest, True)
        per_tree = list(mems)
        per_tree[2] = True
        with pytest.raises(TypeError, match="tree 2: .*bool"):
            fk.forest_best_postorders(forest, per_tree)

    @pytest.mark.parametrize("algorithm", fk.FOREST_STRATEGIES)
    def test_traversals_match_registry(self, trees, forest, mems, algorithm):
        strategy = get_algorithm(algorithm)
        travs = fk.forest_traversals(forest, algorithm, mems)
        for k, tree in enumerate(trees):
            assert travs[k] == strategy(tree, mems[k])

    def test_unknown_forest_strategy(self, forest, mems):
        with pytest.raises(KeyError, match="no forest kernel"):
            fk.forest_traversals(forest, "RecExpand", mems)

    def test_vector_engine_rejects_mixed_modes(self, forest, mems):
        mixed = list(mems)
        mixed[3] = None
        with pytest.raises(ValueError, match="mixed"):
            fk.forest_best_postorders(forest, mixed, vectorize=True)
        # the loop path handles mixed modes fine
        out = fk.forest_best_postorders(forest, mixed, vectorize=False)
        assert out[3] == kernels.best_postorder(
            ArrayForest.from_trees([forest.tree(3)]).tree(0), None
        )

    def test_memory_count_mismatch(self, forest):
        with pytest.raises(ValueError, match="memory bounds"):
            fk.forest_best_postorders(forest, [1, 2, 3])


class TestSortHelpers:
    """The fast sorts behind the level sweeps equal numpy's stable sorts."""

    def test_group_sort_matches_lexsort(self):
        rng = np.random.default_rng(5)
        for lo, hi in ((0, 3), (-50, 50), (-(2**61), 2**61)):
            for _ in range(20):
                n = int(rng.integers(1, 400))
                groups = np.sort(rng.integers(0, max(1, n // 3), n))
                keys = rng.integers(lo, hi, n, dtype=np.int64)
                assert np.array_equal(
                    fk._group_sort(keys, groups), np.lexsort((keys, groups))
                )

    @pytest.mark.parametrize("width", [0, 10**9])
    def test_both_emission_passes_match_the_cores(
        self, ats, forest, mems, width, monkeypatch
    ):
        # width 0 forces the top-down level pass, 10**9 pointer doubling
        monkeypatch.setattr(fk, "_EMIT_LEVEL_MIN_WIDTH", width)
        for memories in (None, mems):
            got = fk.forest_best_postorders(forest, memories, vectorize=True)
            bounds = [None] * len(ats) if memories is None else memories
            for at, m, row in zip(ats, bounds, got):
                assert tuple(row) == tuple(kernels.best_postorder(at, m))

    def test_stable_argsort_ids_matches_argsort(self):
        from repro.core.forest import _stable_argsort_ids

        rng = np.random.default_rng(6)
        for hi in (2, 70_000, 2**40):
            values = rng.integers(0, hi, 5_000, dtype=np.int64)
            assert np.array_equal(
                _stable_argsort_ids(values), np.argsort(values, kind="stable")
            )
        empty = np.zeros(0, dtype=np.int64)
        assert len(_stable_argsort_ids(empty)) == 0


class TestDeepForest:
    """Chains past the vectorised budgets stay exact via the fallbacks."""

    def test_deep_chain_forest(self):
        n = 6000  # deeper than _VECTOR_MAX_DEPTH
        rng = np.random.default_rng(5)
        weights = rng.integers(1, 100, size=n).astype(np.int64)
        parents = np.arange(-1, n - 1, dtype=np.int64)
        f = ArrayForest.from_pairs([(parents, weights), ([-1, 0], [3, 4])])
        assert f.max_depth() == n - 1
        at = ArrayTree(parents, weights)
        mm = fk.forest_best_postorders(f, None)
        assert mm[0] == kernels.best_postorder(at, None)
        _assert_same_buffers(f.tree(0), at)


def _chain(n, weights):
    return (list(range(-1, n - 1)), list(weights))


def _star(n, weights):
    return ([-1] + [0] * (n - 1), list(weights))


def _binary(n, weights):
    return ([-1] + [(i - 1) // 2 for i in range(1, n)], list(weights))


def _adversarial_forests():
    """Merge-tie and degenerate shapes aimed at the vectorised cores."""
    rng = np.random.default_rng(BASE_SEED)

    def w(n, lo, hi):
        return rng.integers(lo, hi, size=n).tolist()

    return {
        # maximal hill–valley merge ties: every candidate segment equal
        "all-equal": [
            _binary(31, [7] * 31),
            _star(40, [3] * 40),
            _chain(25, [5] * 25),
            _binary(64, [1] * 64),
            ([-1], [2]),
        ],
        # deep single-child chains (arity-1 levels, identity merges)
        "chains": [
            _chain(800, w(800, 1, 50)),
            _chain(799, [9] * 799),
            _chain(2, [1, 10 ** 9]),
            _chain(500, w(500, 1, 4)),
        ],
        # zero-weight nodes: zero-size residents are never evictable
        "zero-weights": [
            _binary(50, [0] * 50),
            _star(30, [0, 5] * 15),
            _chain(40, [i % 2 for i in range(40)]),
            _binary(33, w(33, 0, 3)),
        ],
        # single-node members interleaved with real trees
        "singletons": [
            ([-1], [1]),
            _binary(100, w(100, 1, 100)),
            ([-1], [10 ** 12]),
            ([-1], [0]),
            _star(10, w(10, 1, 9)),
        ],
    }


class TestAdversarialFamilies:
    """Both engines stay byte-identical on the shapes built to split them."""

    @pytest.mark.parametrize("family", sorted(_adversarial_forests()))
    def test_liu_and_fif_equivalence(self, family):
        pairs = _adversarial_forests()[family]
        forest = ArrayForest.from_pairs(pairs)
        peaks_l = fk.forest_min_peaks(forest, vectorize=False)
        peaks_v = fk.forest_min_peaks(forest, vectorize=True)
        assert peaks_l == peaks_v
        assert fk.forest_opt_min_mem(
            forest, vectorize=False
        ) == fk.forest_opt_min_mem(forest, vectorize=True)
        lbs = fk.forest_lower_bounds(forest)
        schedules = [
            s for s, _st, _v in fk.forest_best_postorders(forest, None)
        ]
        for mems in (
            None,
            [max(1, lb) for lb in lbs],  # tightest feasible: max eviction
            [
                max(max(1, lb), (lb + pk - 1) // 2)
                for lb, pk in zip(lbs, peaks_l)
            ],
        ):
            assert fk.forest_simulate_fif(
                forest, schedules, mems, vectorize=False
            ) == fk.forest_simulate_fif(
                forest, schedules, mems, vectorize=True
            )

    def test_mixed_infeasible_parity_tree_by_tree(self):
        """Each infeasible member raises identically on both engines."""
        pairs = _adversarial_forests()["singletons"]
        forest = ArrayForest.from_pairs(pairs)
        lbs = fk.forest_lower_bounds(forest)
        schedules = [
            s for s, _st, _v in fk.forest_best_postorders(forest, None)
        ]
        for k, lb in enumerate(lbs):
            if lb <= 1:
                continue
            mems = [None] * forest.n_trees
            mems[k] = lb - 1
            with pytest.raises(InfeasibleSchedule) as loop_exc:
                fk.forest_simulate_fif(
                    forest, schedules, mems, vectorize=False
                )
            with pytest.raises(InfeasibleSchedule) as vec_exc:
                fk.forest_simulate_fif(
                    forest, schedules, mems, vectorize=True
                )
            assert str(loop_exc.value) == str(vec_exc.value)


#: the violation classes the forest_validate fuzzer seeds, one per
#: branch of the scalar validate (memory overflow from either side)
VIOLATIONS = (
    "schedule-length",
    "out-of-range-id",
    "duplicated-id",
    "child-after-parent",
    "misaligned-io",
    "negative-io",
    "io-above-weight",
    "lowered-bound",
    "zeroed-io",
)


def _first_scalar_failure(trees, traversals, mems):
    """Message of the first member scalar ``validate`` rejects, or None."""
    for tree, traversal, memory in zip(trees, traversals, mems):
        try:
            validate(tree, traversal, memory)
        except InvalidTraversal as exc:
            return str(exc)
    return None


def _can_carry(kind, tree, traversal):
    if kind in ("duplicated-id", "child-after-parent"):
        return tree.n >= 2
    if kind == "zeroed-io":
        return traversal.io_volume > 0
    return True


def _seed_violation(kind, tree, traversal, memory, rng):
    """``(traversal, memory)`` of one member with a ``kind`` violation."""
    n = tree.n
    sched = list(traversal.schedule)
    io = list(traversal.io)
    v = int(rng.integers(n))
    r = int(rng.integers(1, 5))
    if kind == "schedule-length":
        sched = sched[:-1] if rng.random() < 0.5 else sched + [sched[0]]
    elif kind == "out-of-range-id":
        sched[v] = n - 1 + r if rng.random() < 0.5 else -r
    elif kind == "duplicated-id":
        sched[v] = sched[(v + 1 + int(rng.integers(n - 1))) % n]
    elif kind == "child-after-parent":
        child = int(rng.choice([u for u in range(n) if tree.parents[u] != -1]))
        a, b = sched.index(child), sched.index(tree.parents[child])
        sched[a], sched[b] = sched[b], sched[a]
    elif kind == "misaligned-io":
        io = io[:-1] if rng.random() < 0.5 else io + [0]
    elif kind == "negative-io":
        io[v] = -r
    elif kind == "io-above-weight":
        io[v] = tree.weights[v] + r
    elif kind == "lowered-bound":
        memory = tree.min_feasible_memory() - r
    elif kind == "zeroed-io":
        io = [0] * n
    return Traversal(tuple(sched), tuple(io)), memory


class TestForestValidate:
    """The whole-forest validity check against its scalar oracle.

    Every violation class is seeded into a random member of seeded
    mixed-size forests (single-node members included), sometimes with a
    second violation in another member; ``forest_validate`` must raise
    the exact ``InvalidTraversal`` scalar ``validate`` raises for the
    first failing member, and accept every clean forest.
    """

    ROUNDS = 6

    @staticmethod
    def _clean_round(trees, rng):
        picks = rng.choice(len(trees), size=int(rng.integers(3, 7)), replace=False)
        members = [trees[int(i)] for i in picks]
        for _ in range(int(rng.integers(1, 3))):
            members.insert(
                int(rng.integers(len(members) + 1)),
                TaskTree([-1], [int(rng.integers(0, 20))]),
            )
        forest = ArrayForest.from_pairs(
            [(list(t.parents), list(t.weights)) for t in members]
        )
        tight = rng.random() < 0.5  # M1 forces I/O wherever it can
        mems = [
            lb if tight else max(lb, (lb + peak - 1) // 2)
            for lb, peak in fk.forest_memory_bounds(forest)
        ]
        algorithm = ("OptMinMem", "PostOrderMinIO")[int(rng.integers(2))]
        traversals = fk.forest_traversals(forest, algorithm, mems)
        fk.forest_validate(forest, traversals, mems)  # clean: no raise
        return members, forest, traversals, mems

    @pytest.mark.parametrize("kind", VIOLATIONS)
    def test_seeded_violation_matches_scalar(self, trees, kind):
        rng = np.random.default_rng(BASE_SEED + VIOLATIONS.index(kind))
        seeded_rounds = 0
        while seeded_rounds < self.ROUNDS:
            members, forest, traversals, mems = self._clean_round(trees, rng)
            traversals = list(traversals)
            eligible = [
                k
                for k, (t, tr) in enumerate(zip(members, traversals))
                if _can_carry(kind, t, tr)
            ]
            if not eligible:  # e.g. zeroed-io on a forest without I/O
                continue
            seeded_rounds += 1
            targets = [int(rng.choice(eligible))]
            if rng.random() < 0.5:  # a second violation elsewhere
                others = [k for k in range(len(members)) if k != targets[0]]
                targets.append(int(rng.choice(others)))
            for k, seeded in zip(targets, (kind, rng.choice(VIOLATIONS))):
                if not _can_carry(seeded, members[k], traversals[k]):
                    continue
                traversals[k], mems[k] = _seed_violation(
                    seeded, members[k], traversals[k], mems[k], rng
                )
            expected = _first_scalar_failure(members, traversals, mems)
            assert expected is not None
            with pytest.raises(InvalidTraversal) as exc:
                fk.forest_validate(forest, traversals, mems)
            assert str(exc.value) == expected
            if all(
                len(t.schedule) == len(t.io) == m.n
                for t, m in zip(traversals, members)
            ):  # node-aligned: the same check through the column input
                with pytest.raises(InvalidTraversal) as exc:
                    fk.forest_validate(
                        forest, _columns(forest, traversals), mems
                    )
                assert str(exc.value) == expected

    def test_duplicate_that_only_the_permutation_check_sees(self):
        # leaf 1 twice, leaf 2 never: precedence, io and memory all hold
        members = [TaskTree([-1], [3]), TaskTree([-1, 0, 0], [1, 2, 2])]
        forest = ArrayForest.from_pairs(
            [(list(t.parents), list(t.weights)) for t in members]
        )
        traversals = [Traversal((0,), (0,)), Traversal((1, 1, 0), (0, 0, 0))]
        with pytest.raises(InvalidTraversal) as exc:
            fk.forest_validate(forest, traversals, 100)
        assert str(exc.value) == _first_scalar_failure(
            members, traversals, [100, 100]
        )

    def test_ids_beyond_int64_fall_back_to_the_scalar_oracle(self, trees):
        members = [trees[3], trees[4]]
        forest = ArrayForest.from_pairs(
            [(list(t.parents), list(t.weights)) for t in members]
        )
        traversals = fk.forest_traversals(forest, "PostOrderMinMem", None)
        mems = [10**18, 10**30]  # beyond int64 is a valid (loose) bound
        fk.forest_validate(forest, traversals, mems)
        bad = Traversal(
            (2**70,) + traversals[1].schedule[1:], traversals[1].io
        )
        with pytest.raises(InvalidTraversal) as exc:
            fk.forest_validate(forest, [traversals[0], bad], mems)
        assert str(exc.value) == _first_scalar_failure(
            members, [traversals[0], bad], mems
        )

    def test_traversal_count_mismatch(self, forest):
        with pytest.raises(ValueError, match="traversals for"):
            fk.forest_validate(forest, [], 10)


class TestLiuMemo:
    """One Liu sweep per forest, and never a peaks-only answer to a
    request that needs schedules."""

    @staticmethod
    def _counting(monkeypatch):
        calls = []
        raw = fk._liu_vector

        def counted(forest, *, schedules=True, **kw):
            calls.append(schedules)
            return raw(forest, schedules=schedules, **kw)

        monkeypatch.setattr(fk, "_liu_vector", counted)
        return calls

    def test_batch_runs_one_sweep_per_forest(self, trees, monkeypatch):
        from repro.api import BatchRequest
        from repro.api.execution import execute_batch

        calls = self._counting(monkeypatch)
        request = BatchRequest(
            trees=tuple(
                (tuple(t.parents), tuple(t.weights)) for t in trees[:24]
            ),
            algorithms=("OptMinMem", "PostOrderMinIO"),
        )
        payload = execute_batch(request)
        assert calls == [True]
        assert payload == execute_batch(
            dataclasses.replace(request, forest=False)
        )

    def test_either_call_order_matches_a_fresh_forest(self, trees, monkeypatch):
        calls = self._counting(monkeypatch)
        pairs = [(list(t.parents), list(t.weights)) for t in trees[:40]]
        bounds_first = ArrayForest.from_pairs(pairs)
        b1 = fk.forest_memory_bounds(bounds_first)
        o1 = fk.forest_opt_min_mem(bounds_first)
        opt_first = ArrayForest.from_pairs(pairs)
        o2 = fk.forest_opt_min_mem(opt_first)
        b2 = fk.forest_memory_bounds(opt_first)
        assert b1 == b2 == fk.forest_memory_bounds(ArrayForest.from_pairs(pairs))
        assert o1 == o2 == fk.forest_opt_min_mem(ArrayForest.from_pairs(pairs))
        # bounds first leaves a peaks-only entry: the schedule request
        # re-sweeps; schedules first answers the later peaks from memo
        assert calls[:3] == [False, True, True]

    def test_peaks_only_entry_never_serves_schedules(self, trees, monkeypatch):
        calls = self._counting(monkeypatch)
        pairs = [(list(t.parents), list(t.weights)) for t in trees[:16]]
        forest = ArrayForest.from_pairs(pairs)
        peaks = fk.forest_min_peaks(forest)
        assert forest._liu_cache[1] is None
        opt = fk.forest_opt_min_mem(forest)
        assert calls == [False, True]
        assert [pk for _s, pk in opt] == peaks
        assert opt == fk.forest_opt_min_mem(forest, vectorize=False)
        assert fk.forest_min_peaks(forest) == peaks
        assert calls == [False, True]  # the schedule sweep now serves both

    def test_subset_carries_the_memo(self, trees, monkeypatch):
        pairs = [(list(t.parents), list(t.weights)) for t in trees[:12]]
        forest = ArrayForest.from_pairs(pairs)
        fk.forest_liu_sweep(forest)
        calls = self._counting(monkeypatch)
        keep = [0, 3, 4, 9, 11]
        sub = forest.subset(keep)
        assert calls == []  # the subset swept nothing
        fresh = ArrayForest.from_pairs([pairs[k] for k in keep])
        assert fk.forest_opt_min_mem(sub) == fk.forest_opt_min_mem(fresh)
        assert calls == [True]  # only the fresh forest swept
        _assert_same_buffers(sub.tree(2), fresh.tree(2))


def _deep_mixed_pairs(chain_depth):
    """Shallow members mixed with deep ones, single-node trees included."""
    from repro.datasets.synth import huge_instance, synth_instance

    rng = np.random.default_rng(BASE_SEED + chain_depth)

    def w(n):
        return rng.integers(1, 60, size=n).tolist()

    def synth(n, shape, seed):
        t = synth_instance(n, seed=seed, shape=shape)
        return (list(t.parents), list(t.weights))

    cat = huge_instance("caterpillar", 300, seed=7, depth=90)
    return [
        ([-1], [4]),
        synth(1000, "binary", 3),  # ~95 deep
        _star(20, w(20)),
        synth(500, "plane", 3),  # ~45 deep
        ([-1], [0]),
        (cat._parents.tolist(), cat._weights.tolist()),
        _chain(chain_depth + 1, w(chain_depth + 1)),
        synth(30, "binary", 5),
        ([-1], [9]),
    ]


class TestLiuDepthCap:
    """Every depth cap of the Liu sweep gives the full sweep's answer.

    Caps run from ``-1`` (every subtree on the scalar tail) to the max
    depth (the full level sweep); peaks and schedules must equal
    both that sweep and the per-tree ``liu_segments_core``, with and
    without the schedule bookkeeping.
    """

    @staticmethod
    def _reference(forest):
        peaks, sched = [], []
        for k in range(forest.n_trees):
            schedule, peak = kernels.liu_schedule(forest.tree(k))
            peaks.append(peak)
            sched.extend(schedule)
        return np.array(peaks, dtype=np.int64), np.array(sched, dtype=np.int64)

    @staticmethod
    def _assert_cap(forest, cap, peaks, sched):
        got_p, got_s = fk._liu_vector(forest, schedules=True, cap=cap)
        assert np.array_equal(got_p, peaks), cap
        assert np.array_equal(got_s, sched), cap
        only_p, none = fk._liu_vector(forest, schedules=False, cap=cap)
        assert none is None
        assert np.array_equal(only_p, peaks), cap

    def test_every_cap_matches_the_full_sweep_and_the_core(self):
        forest = ArrayForest.from_pairs(_deep_mixed_pairs(100))
        max_depth = forest.max_depth()
        assert max_depth == 100
        peaks, sched = self._reference(forest)
        full = fk._liu_vector(forest, schedules=True, cap=max_depth)
        assert np.array_equal(full[0], peaks)
        assert np.array_equal(full[1], sched)
        for cap in range(-1, max_depth + 1):
            self._assert_cap(forest, cap, peaks, sched)

    def test_chain_deeper_than_the_old_depth_guard(self):
        forest = ArrayForest.from_pairs(_deep_mixed_pairs(4200))
        max_depth = forest.max_depth()
        assert max_depth == 4200
        peaks, sched = self._reference(forest)
        auto = fk._liu_cap(np.bincount(forest._depths()))
        assert auto < 64  # a chain is worth no level pass of its own
        for cap in (-1, 0, 1, auto, 90, max_depth // 2, max_depth):
            self._assert_cap(forest, cap, peaks, sched)
        # the public entry points run the capped sweep, memoised
        forest._liu_cache = None
        assert fk.forest_min_peaks(forest) == peaks.tolist()
        assert fk.forest_opt_min_mem(forest) == fk.forest_opt_min_mem(
            forest, vectorize=False
        )

    def test_the_cost_model_picks_low_caps_for_small_forests(self):
        single = np.bincount(
            ArrayForest.from_pairs(_deep_mixed_pairs(100)[1:2])._depths()
        )
        assert fk._liu_cap(single) == -1  # one tree: all scalar
        wide = np.full(40, 5000)  # thousands of nodes on every level
        assert fk._liu_cap(wide) == 39  # the full sweep
        narrow_tail = np.concatenate([np.full(10, 5000), np.ones(50, int)])
        assert fk._liu_cap(narrow_tail) == 9  # levels stop where width ends


def _columns(forest, traversals):
    """A plain traversal list packed into :class:`ForestTraversals`."""
    total = forest.total_nodes
    sched = np.fromiter(
        (v for t in traversals for v in t.schedule), np.int64, total
    )
    io = np.fromiter((a for t in traversals for a in t.io), np.int64, total)
    return fk.ForestTraversals(forest.offsets.copy(), sched, io)


class TestFlatColumns:
    """``forest_traversals`` answers in columns; members equal the registry."""

    @pytest.mark.parametrize("algorithm", fk.FOREST_STRATEGIES)
    def test_subset_members_match_registry(self, trees, mems, algorithm):
        keep = list(range(1, len(trees), 3))
        full = ArrayForest.from_pairs(
            [(list(t.parents), list(t.weights)) for t in trees]
        )
        fk.forest_liu_sweep(full)  # the subset inherits this memo
        sub = full.subset(keep)
        sub_mems = [mems[k] for k in keep]
        strategy = get_algorithm(algorithm)
        travs = fk.forest_traversals(sub, algorithm, sub_mems)
        assert isinstance(travs, fk.ForestTraversals)
        assert len(travs) == len(keep)
        for j, k in enumerate(keep):
            expected = strategy(sub.tree(j), sub_mems[j])
            assert travs[j] == expected
            assert travs.io_volumes[j] == expected.io_volume
        assert travs[-1] == travs[len(keep) - 1]
        with pytest.raises(IndexError):
            travs[len(keep)]

    @pytest.mark.parametrize("algorithm", fk.FOREST_STRATEGIES)
    def test_mixed_none_loop_fallback(self, forest, mems, algorithm):
        mixed = [None if k % 4 == 1 else m for k, m in enumerate(mems)]
        travs = fk.forest_traversals(forest, algorithm, mixed)
        for k in range(forest.n_trees):
            tree = forest.tree(k)
            if mixed[k] is None and algorithm == "PostOrderMinIO":
                # unbounded MinIO: the MinMem order, and FiF evicts nothing
                expected = Traversal(
                    tuple(kernels.best_postorder(tree, None)[0]),
                    (0,) * tree.n,
                )
            else:
                expected = get_algorithm(algorithm)(tree, mixed[k])
            assert travs[k] == expected

    def test_columns_are_read_only(self, trees):
        pairs = [(list(t.parents), list(t.weights)) for t in trees[:10]]
        forest = ArrayForest.from_pairs(pairs)
        travs = fk.forest_traversals(forest, "OptMinMem", None)
        peaks, schedule = forest._liu_cache
        for col in (schedule, peaks, travs.schedule, travs.io, travs.offsets):
            with pytest.raises(ValueError):
                col[0] = 1
        assert travs.schedule is schedule  # the memo feeds FiF directly
        sub = forest.subset([1, 4])
        with pytest.raises(ValueError):
            sub._liu_cache[1][0] = 1

    def test_validate_takes_columns_and_lists_alike(self, forest, mems):
        travs = fk.forest_traversals(forest, "PostOrderMinIO", mems)
        fk.forest_validate(forest, travs, mems)
        fk.forest_validate(forest, list(travs), mems)
        bad = list(travs)
        io = list(bad[7].io)
        io[0] = -1
        bad[7] = Traversal(bad[7].schedule, tuple(io))
        messages = []
        for candidate in (bad, _columns(forest, bad)):
            with pytest.raises(InvalidTraversal) as exc:
                fk.forest_validate(forest, candidate, mems)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
