"""Tests for the parallel batch experiment engine (repro.experiments.batch)."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.datasets.store import ResultCache, cache_key
from repro.experiments.batch import (
    BatchStats,
    counterexample_units,
    merge_shards,
    run_batch_counterexamples,
    run_batch_figures,
    run_batch_report,
    run_shard,
    shard_figure,
)
from repro.experiments.figures import FIGURE_SPECS, figure10
from repro.experiments.runner import run_all, run_counterexamples, run_figures


def _strip_timing(report_dict):
    d = json.loads(json.dumps(report_dict))
    d.pop("started_at", None)
    d.pop("elapsed_seconds", None)
    d.pop("batch", None)
    for f in d.get("figures", {}).values():
        f.pop("seconds", None)
        if f.get("differing"):
            f["differing"].pop("seconds", None)
    return d


class TestSharding:
    def test_shards_cover_dataset_in_order(self):
        shards = shard_figure("fig10", "tiny", shard_size=3)
        assert [s.index for s in shards] == list(range(len(shards)))
        assert all(len(s.trees) <= 3 for s in shards)
        assert all(len(s.trees) == 3 for s in shards[:-1])

    def test_shard_boundaries_independent_of_jobs(self):
        # Shards are a function of the data alone; two computations agree.
        a = shard_figure("fig10", "tiny")
        b = shard_figure("fig10", "tiny")
        assert [s.key() for s in a] == [s.key() for s in b]

    def test_shard_keys_distinct_across_figures_and_shards(self):
        keys = [
            s.key()
            for fid in ("fig8", "fig10")
            for s in shard_figure(fid, "tiny", shard_size=2)
        ]
        assert len(keys) == len(set(keys))

    def test_shard_seed_is_deterministic(self):
        (first_a,) = shard_figure("fig10", "tiny", shard_size=10**6)[:1]
        (first_b,) = shard_figure("fig10", "tiny", shard_size=10**6)[:1]
        assert first_a.seed == first_b.seed

    def test_bad_shard_size_rejected(self):
        with pytest.raises(ValueError):
            shard_figure("fig10", "tiny", shard_size=0)


class TestMerge:
    def test_merge_matches_serial_run_comparison(self):
        serial = figure10("tiny")
        shards = shard_figure("fig10", "tiny", shard_size=3)
        merged = merge_shards("fig10", shards, [run_shard(s) for s in shards])
        assert merged.io_volumes == serial.io_volumes
        assert merged.memories == serial.memories
        assert merged.instance_sizes == serial.instance_sizes

    def test_merge_is_order_insensitive(self):
        shards = shard_figure("fig10", "tiny", shard_size=2)
        payloads = [run_shard(s) for s in shards]
        rev = merge_shards("fig10", list(reversed(shards)), list(reversed(payloads)))
        fwd = merge_shards("fig10", shards, payloads)
        assert rev.io_volumes == fwd.io_volumes

    def test_merge_length_mismatch_rejected(self):
        shards = shard_figure("fig10", "tiny", shard_size=4)
        with pytest.raises(ValueError):
            merge_shards("fig10", shards, [])


class TestEquivalence:
    def test_batch_figures_match_serial(self):
        serial = run_figures("tiny", figure_ids=["fig10"])
        batched = run_batch_figures("tiny", figure_ids=["fig10"])
        assert _strip_timing({"figures": serial}) == _strip_timing(
            {"figures": batched}
        )

    def test_batch_counterexamples_match_serial(self):
        assert run_batch_counterexamples() == run_counterexamples()

    def test_run_all_delegates_to_batch_when_parallel(self):
        report = run_all("tiny", jobs=2)
        assert report.batch is not None
        assert report.batch["units_computed"] == report.batch["units_total"]

    def test_parallel_report_matches_serial_report(self):
        serial = dataclasses.asdict(run_batch_report("tiny", jobs=1))
        par = dataclasses.asdict(run_batch_report("tiny", jobs=2))
        assert _strip_timing(serial) == _strip_timing(par)


class TestCache:
    def test_cold_then_warm(self, tmp_path):
        cold = run_batch_report("tiny", cache=ResultCache(tmp_path))
        assert cold.batch["cache"] == {
            "enabled": True,
            "hits": 0,
            "misses": cold.batch["units_total"],
        }
        warm = run_batch_report("tiny", cache=ResultCache(tmp_path))
        assert warm.batch["cache"]["hits"] == warm.batch["units_total"]
        assert warm.batch["units_computed"] == 0
        assert _strip_timing(dataclasses.asdict(cold)) == _strip_timing(
            dataclasses.asdict(warm)
        )

    def test_corrupt_entry_is_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_batch_counterexamples(cache=cache, fig2c_ks=(1,), fig2a_extensions=())
        victim = next(tmp_path.glob("*/*.json"))
        victim.write_text("{ truncated")
        cache2 = ResultCache(tmp_path)
        out = run_batch_counterexamples(
            cache=cache2, fig2c_ks=(1,), fig2a_extensions=()
        )
        assert cache2.misses == 1
        assert out == run_counterexamples(fig2c_ks=(1,), fig2a_extensions=())

    def test_cache_key_is_canonical(self):
        assert cache_key({"a": 1, "b": 2}) == cache_key({"b": 2, "a": 1})
        assert cache_key({"a": 1}) != cache_key({"a": 2})

    def test_len_counts_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        assert len(cache) == 0
        cache.put(cache_key({"x": 1}), {"v": 1})
        assert len(cache) == 1


class TestUnits:
    def test_counterexample_units_cover_runner_instances(self):
        names = {u.name for u in counterexample_units()}
        assert names == set(run_counterexamples())

    def test_stats_serialise(self):
        stats = BatchStats(units_total=3, units_computed=2, cache_enabled=True)
        d = stats.to_dict()
        assert d["units_total"] == 3
        assert d["cache"]["enabled"] is True

    def test_specs_cover_all_figures(self):
        from repro.experiments.figures import FIGURES

        assert set(FIGURE_SPECS) == set(FIGURES)


class TestForestPath:
    """The forest shard path must be invisible in every output."""

    def test_forest_and_per_tree_payloads_identical(self):
        for fig_id in ("fig4", "fig5"):
            on = shard_figure(fig_id, "tiny", forest=True)
            off = shard_figure(fig_id, "tiny", forest=False)
            # the flag is a performance knob: keys must not move
            assert [s.key() for s in on] == [s.key() for s in off]
            assert [s.seed for s in on] == [s.seed for s in off]
            for a, b in zip(on, off):
                pa, pb = run_shard(a), run_shard(b)
                pa.pop("seconds")
                pb.pop("seconds")
                assert pa == pb

    def test_object_engine_field_is_ignored(self, monkeypatch):
        """``engine="object"`` selects nothing: the forest path still runs,
        and the payload equals the per-tree (``forest=False``) one."""
        from repro.api import execution

        shard = shard_figure("fig4", "tiny")[0]
        pinned = dataclasses.replace(shard, engine="object")
        assert pinned.key() == shard.key()
        forest_runs = []
        real = execution._execute_batch_forest
        monkeypatch.setattr(
            execution,
            "_execute_batch_forest",
            lambda *args: forest_runs.append(1) or real(*args),
        )
        payload = run_shard(pinned)
        assert forest_runs == [1]
        reference = run_shard(dataclasses.replace(shard, forest=False))
        assert forest_runs == [1]
        payload.pop("seconds")
        reference.pop("seconds")
        assert json.dumps(payload) == json.dumps(reference)

    def test_shard_key_is_computed_once(self):
        shard = shard_figure("fig4", "tiny")[0]
        assert shard.key() is shard.key()  # cached canonicalisation

    def test_pinned_memory_changes_the_shard_key(self):
        """An absolute bound changes the output, so it must change the key."""
        base = shard_figure("fig4", "tiny")[0]
        assert base.memory is None  # the figure pipeline uses the bound policy
        pinned = dataclasses.replace(base, memory=7)
        other = dataclasses.replace(base, memory=9)
        assert base.key() != pinned.key()
        assert pinned.key() != other.key()

    def test_report_identical_with_and_without_forest(self):
        on = run_batch_figures("tiny", figure_ids=["fig4"], forest=True)
        off = run_batch_figures("tiny", figure_ids=["fig4"], forest=False)
        on["fig4"].pop("seconds")
        off["fig4"].pop("seconds")
        assert on == off

    def test_over_budget_shard_falls_back_to_per_tree(self):
        """Weights past the forest's int64 budget must not crash run_shard."""
        big = 2**61
        trees = ((((-1, 0, 0)), ((big, big, big))),)
        on = dataclasses.replace(
            shard_figure("fig4", "tiny", forest=True)[0], trees=trees
        )
        off = dataclasses.replace(on, forest=False)
        pa, pb = run_shard(on), run_shard(off)
        pa.pop("seconds")
        pb.pop("seconds")
        assert pa == pb


def _synth_pairs(sizes, seed):
    """Seeded binary trees of the given sizes, each with an I/O regime."""
    from repro.analysis.bounds import memory_bounds
    from repro.datasets.synth import synth_instance

    pairs = []
    for n in sizes:
        tree = synth_instance(n, seed=seed)
        while not memory_bounds(tree).has_io_regime:
            seed += 1
            tree = synth_instance(n, seed=seed)
        seed += 1
        pairs.append((tuple(tree.parents), tuple(tree.weights)))
    return pairs


#: members without an I/O regime (Peak_incore == LB): dropped by the
#: bound policies, which sends the forest path down its subset branch
_NO_IO_REGIME = (((-1,), (5,)), ((-1, 0, 1), (4, 2, 7)))


class TestExecuteBatchParity:
    """``execute_batch`` with ``forest=True`` equals ``forest=False``.

    Covers the paths the benchmark corpus never takes; equality must
    survive ``json.dumps`` too, so no numpy scalar can leak into the
    payload.
    """

    @staticmethod
    def _assert_parity(request):
        from repro.api.execution import execute_batch

        on = execute_batch(request)
        off = execute_batch(dataclasses.replace(request, forest=False))
        assert on == off
        assert json.dumps(on) == json.dumps(off)
        return on

    def test_members_without_an_io_regime(self):
        pairs = _synth_pairs([40, 60, 25, 80, 33, 50], seed=11)
        trees = tuple(pairs[:2]) + _NO_IO_REGIME + tuple(pairs[2:])
        for bound in ("M1", "Mmid", "M2"):
            payload = self._assert_parity(_batch(trees, bound=bound))
            assert len(payload["sizes"]) == len(pairs)

    def test_every_member_without_an_io_regime(self):
        payload = self._assert_parity(_batch(_NO_IO_REGIME * 3))
        assert payload["sizes"] == []

    def test_explicit_memory(self):
        from repro.core.tree import TaskTree

        pairs = _synth_pairs([30, 45, 70, 20, 55], seed=23)
        lb = max(TaskTree(p, w).min_feasible_memory() for p, w in pairs)
        for memory in (lb, lb + 40):
            payload = self._assert_parity(_batch(pairs, memory=memory))
            assert payload["memories"] == [memory] * len(pairs)

    @pytest.mark.parametrize("memory", [2**63, 10**30])
    @pytest.mark.parametrize("algorithm", ["OptMinMem", "PostOrderMinIO"])
    def test_memory_beyond_int64(self, memory, algorithm):
        from repro.api.execution import execute_batch_request

        pairs = _synth_pairs([30, 45, 70, 20, 55], seed=71)
        request = _batch(pairs, memory=memory, algorithms=(algorithm,))
        payload = self._assert_parity(request)
        # the caller's bound comes back as given, not clamped
        assert payload["memories"] == [memory] * len(pairs)
        assert payload["io"] == {algorithm: [0] * len(pairs)}
        assert execute_batch_request(request)["ok"] is True

    def test_rec_expand_mixed_with_kernel_strategies(self):
        pairs = _synth_pairs([18, 30, 24, 12, 27], seed=31)
        self._assert_parity(
            _batch(
                tuple(pairs) + _NO_IO_REGIME,
                algorithms=("RecExpand", "OptMinMem", "FullRecExpand",
                            "PostOrderMinIO", "PostOrderMinMem"),
            )
        )

    def test_below_the_vectorised_tree_count(self):
        from repro.core.forest_kernels import _VECTOR_MIN_TREES

        pairs = _synth_pairs([50, 90, 35], seed=41)
        for count in range(1, _VECTOR_MIN_TREES):
            self._assert_parity(_batch(pairs[:count] + [_NO_IO_REGIME[0]]))

    def test_object_engine(self):
        pairs = _synth_pairs([40, 64, 28, 52], seed=53)
        self._assert_parity(_batch(pairs, engine="object"))

    def test_invalid_forest_traversal_is_unsolvable(self, monkeypatch):
        from repro.api import execution
        from repro.core.traversal import InvalidTraversal, Traversal, validate
        from repro.core.tree import TaskTree

        pairs = _synth_pairs([40, 64, 28, 52, 36], seed=61)
        request = _batch(pairs, algorithms=("PostOrderMinIO",))
        memories = execution.execute_batch(request)["memories"]
        real = execution.forest_traversals

        def corrupted(forest, algorithm, mems):
            out = list(real(forest, algorithm, mems))
            io = list(out[2].io)
            io[0] = -1
            out[2] = Traversal(out[2].schedule, tuple(io))
            return out

        monkeypatch.setattr(execution, "forest_traversals", corrupted)
        bad = corrupted(
            execution.ArrayForest.from_pairs(pairs), "PostOrderMinIO", memories
        )[2]
        with pytest.raises(InvalidTraversal) as scalar:
            validate(TaskTree(*pairs[2]), bad, memories[2])
        envelope = execution.execute_batch_request(request)
        assert envelope["error"] == {
            "code": "unsolvable",
            "message": f"InvalidTraversal: {scalar.value}",
        }


def _batch(trees, **fields):
    from repro.api import BatchRequest

    fields.setdefault("algorithms", ("OptMinMem", "PostOrderMinIO"))
    return BatchRequest(trees=tuple(trees), **fields)
