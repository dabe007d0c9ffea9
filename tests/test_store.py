"""Tests for the dataset store (repro.datasets.store)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.tree import chain_tree, star_tree
from repro.datasets.store import StoredTree, iter_trees, load_trees, save_trees

from .conftest import task_trees


class TestRoundTrip:
    @given(tree=task_trees(max_nodes=12))
    @settings(max_examples=25)
    def test_single_tree_round_trip(self, tree, tmp_path_factory):
        path = tmp_path_factory.mktemp("store") / "one.jsonl"
        save_trees(path, [StoredTree("t", tree, {"seed": 1})])
        (loaded,) = load_trees(path)
        assert loaded.tree == tree
        assert loaded.name == "t"
        assert loaded.meta == {"seed": 1}

    def test_collection_order_preserved(self, tmp_path):
        trees = [chain_tree([2, 3]), star_tree(1, [4, 5]), chain_tree([7])]
        path = tmp_path / "many.jsonl"
        assert save_trees(path, trees) == 3
        loaded = load_trees(path)
        assert [s.tree for s in loaded] == trees

    def test_bare_trees_get_index_names(self, tmp_path):
        path = tmp_path / "bare.jsonl"
        save_trees(path, [chain_tree([1, 1]), chain_tree([2, 2])])
        names = [s.name for s in load_trees(path)]
        assert names == ["tree-0", "tree-1"]

    def test_streaming_matches_load(self, tmp_path):
        path = tmp_path / "s.jsonl"
        save_trees(path, [chain_tree([2, 3])] * 5)
        assert len(list(iter_trees(path))) == len(load_trees(path)) == 5


class TestRobustness:
    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        save_trees(path, [chain_tree([2, 3])])
        path.write_text(path.read_text() + "\n\n")
        assert len(load_trees(path)) == 1

    def test_corrupt_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        save_trees(path, [chain_tree([2, 3])])
        path.write_text(path.read_text() + "{broken\n")
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            load_trees(path)

    def test_invalid_tree_structure_rejected(self, tmp_path):
        path = tmp_path / "cyc.jsonl"
        path.write_text('{"name":"x","parents":[1,0],"weights":[1,1]}\n')
        with pytest.raises(ValueError, match="bad tree record"):
            load_trees(path)

    def test_end_to_end_with_dataset_builder(self, tmp_path):
        """Cache a built dataset and rerun a comparison from the cache."""
        from repro.experiments.datasets import build_synth
        from repro.experiments.figures import run_comparison

        trees = build_synth("tiny")
        path = tmp_path / "synth_tiny.jsonl"
        save_trees(
            path,
            (StoredTree(f"synth-{i}", t, {"scale": "tiny"})
             for i, t in enumerate(trees)),
        )
        reloaded = [s.tree for s in load_trees(path)]
        assert reloaded == trees
        result = run_comparison(
            "from-cache", reloaded[:6], "Mmid", ("OptMinMem", "RecExpand")
        )
        assert result.num_instances > 0


def _entry(writer: int, iteration: int) -> dict:
    """A value whose fields show whether it was read back whole."""
    return {"writer": writer, "iteration": iteration, "pad": "x" * 3000}


def _is_whole(value) -> bool:
    return (
        value is not None
        and set(value) == {"writer", "iteration", "pad"}
        and value["pad"] == "x" * 3000
    )


def _write_overlapping(root, writer: int, keys, rounds: int) -> None:
    """Several threads of one process write every key, some per entry
    and some per batch, through one shared cache instance."""
    import threading

    from repro.datasets.store import ResultCache

    cache = ResultCache(root)
    errors: list[BaseException] = []

    def run(thread: int) -> None:
        try:
            for j in range(rounds):
                if thread % 2:
                    cache.put_many([(k, _entry(writer, j)) for k in keys])
                else:
                    for k in keys:
                        cache.put(k, _entry(writer, j))
        except BaseException as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


class TestResultCacheConcurrentPut:
    """Writers append to their own segments; readers see whole values."""

    def test_concurrent_writers_same_key_never_corrupt(self, tmp_path):
        import multiprocessing
        import threading

        from repro.datasets.store import ResultCache

        root = tmp_path / "cache"
        keys = [f"{k:064x}" for k in range(6)]
        child = multiprocessing.get_context("fork").Process(
            target=_write_overlapping, args=(root, 1, keys, 20)
        )
        reader = ResultCache(root)
        torn: list = []
        done = threading.Event()

        def read() -> None:
            while not done.is_set():
                for k in keys:
                    value = reader.get(k)
                    if value is not None and not _is_whole(value):
                        torn.append(value)  # pragma: no cover - failure detail

        reading = threading.Thread(target=read)
        child.start()
        reading.start()
        try:
            _write_overlapping(root, 0, keys, 20)
            child.join(60)
        finally:
            done.set()
            reading.join(60)
        assert child.exitcode == 0
        assert not torn
        assert len(list(root.glob("*.seg"))) == 2  # one per writer
        fresh = ResultCache(root)
        assert len(fresh) == len(keys)
        for k in keys:
            value = fresh.get(k)
            assert _is_whole(value) and value["writer"] in (0, 1)


class TestResultCacheSegments:
    """The segment log: damage reads as a miss, and writers stay apart."""

    KEYS = [f"{k:064x}" for k in range(1, 5)]

    def _segment(self, root):
        (segment,) = root.glob("*.seg")
        return segment

    def test_torn_tail_misses_and_the_next_put_reads_back(self, tmp_path):
        import json
        import os

        from repro.datasets.store import ResultCache

        k1, k2, k3, k4 = self.KEYS
        cache = ResultCache(tmp_path)
        cache.put_many([(k1, _entry(0, 1)), (k2, _entry(0, 2)), (k3, _entry(0, 3))])
        segment = self._segment(tmp_path)
        payload = len(json.dumps(_entry(0, 3), sort_keys=True))
        # cut the last record in the middle of its payload
        os.truncate(segment, segment.stat().st_size - payload // 2)
        fresh = ResultCache(tmp_path)
        assert fresh.get(k3) is None
        assert fresh.get(k1) == _entry(0, 1) and fresh.get(k2) == _entry(0, 2)
        assert cache.get(k3) is None  # its writer indexed it before the cut
        # the next records land after the torn one: a small one, which
        # ends before the torn record's declared end, then k3 again
        cache.put(k4, {"small": 1})
        cache.put(k3, _entry(0, 3))
        for reader in (cache, fresh, ResultCache(tmp_path)):
            assert reader.get(k4) == {"small": 1}
            assert reader.get(k3) == _entry(0, 3)
            assert reader.get(k1) == _entry(0, 1)
        assert len(ResultCache(tmp_path)) == 4

    def test_flipped_payload_byte_reads_as_a_miss(self, tmp_path):
        from repro.datasets.store import ResultCache

        k1, k2, k3, _ = self.KEYS
        cache = ResultCache(tmp_path)
        for i, k in enumerate((k1, k2, k3)):
            cache.put(k, _entry(0, i))
        segment = self._segment(tmp_path)
        data = bytearray(segment.read_bytes())
        # one "x" of k2's pad: the JSON still parses, only the CRC knows
        middle = len(data) // 2
        assert data[middle] == ord("x")
        data[middle] = ord("y")
        segment.write_bytes(bytes(data))
        for reader in (cache, ResultCache(tmp_path)):
            assert reader.get(k2) is None
            assert reader.get(k1) == _entry(0, 0)
            assert reader.get(k3) == _entry(0, 2)
        cache.put(k2, _entry(0, 1))  # recomputed and written again
        assert ResultCache(tmp_path).get(k2) == _entry(0, 1)

    def test_forked_child_writes_its_own_segment(self, tmp_path):
        import os

        from repro.datasets.store import ResultCache

        k1, k2, k3, _ = self.KEYS
        cache = ResultCache(tmp_path)
        cache.put(k1, {"by": "parent"})
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            code = 1
            try:
                cache.put(k2, {"by": "child"})
                code = 0
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        cache.put(k3, {"by": "parent"})
        segments = sorted(p.name for p in tmp_path.glob("*.seg"))
        assert len(segments) == 2
        assert sum(name.startswith(f"{pid}-") for name in segments) == 1
        for reader in (cache, ResultCache(tmp_path)):
            assert reader.get(k1) == {"by": "parent"}
            assert reader.get(k2) == {"by": "child"}
            assert reader.get(k3) == {"by": "parent"}

    def test_second_instance_sees_entries_appended_after_its_miss(self, tmp_path):
        from repro.datasets.store import ResultCache

        k1, k2, _, _ = self.KEYS
        writer, reader = ResultCache(tmp_path), ResultCache(tmp_path)
        assert reader.get(k1) is None  # nothing on disk yet
        writer.put(k1, {"v": 1})
        assert reader.get(k2) is None
        writer.put_many([(k2, {"v": 2})])
        assert reader.get(k1) == {"v": 1}
        assert reader.get(k2) == {"v": 2}
        assert reader.stats() == {"hits": 2, "misses": 2}

    def test_peek_moves_no_counter(self, tmp_path):
        from repro.datasets.store import ResultCache

        k1, k2, _, _ = self.KEYS
        ResultCache(tmp_path).put(k1, {"v": 1})
        cache = ResultCache(tmp_path)
        assert cache.peek(k1) == {"v": 1}
        assert cache.peek(k2) is None
        assert cache.stats() == {"hits": 0, "misses": 0}

    def test_empty_batch_creates_no_segment(self, tmp_path):
        from repro.datasets.store import ResultCache

        cache = ResultCache(tmp_path / "cache")
        cache.put_many([])
        assert not (tmp_path / "cache").exists()
        assert len(cache) == 0


class TestBufferDigestKeys:
    """cache_key_buffers: the forest-era content addresses."""

    def test_container_independent(self):
        from array import array

        import numpy as np

        from repro.datasets.store import cache_key_buffers

        params = {"kind": "x", "version": 2, "memory": 9}
        digests = {
            cache_key_buffers(
                params, {"parents": [0, -1, 1], "weights": (5, 6, 7)}
            ),
            cache_key_buffers(
                params,
                {
                    "parents": array("q", [0, -1, 1]),
                    "weights": np.array([5, 6, 7]),
                },
            ),
            cache_key_buffers(
                params,
                {
                    "weights": np.array([5, 6, 7], dtype=np.int32),
                    "parents": (0, -1, 1),
                },
            ),
        }
        assert len(digests) == 1
        (digest,) = digests
        assert len(digest) == 64 and int(digest, 16) >= 0

    def test_values_and_params_bind_the_digest(self):
        from repro.datasets.store import cache_key_buffers

        base = cache_key_buffers({"v": 1}, {"a": [1, 2], "b": [3]})
        assert base != cache_key_buffers({"v": 2}, {"a": [1, 2], "b": [3]})
        assert base != cache_key_buffers({"v": 1}, {"a": [1, 2], "b": [4]})
        # framing: moving an element across the column boundary must not
        # collide even though the concatenated bytes are equal
        assert base != cache_key_buffers({"v": 1}, {"a": [1], "b": [2, 3]})
        # neither may renaming a column
        assert base != cache_key_buffers({"v": 1}, {"a": [1, 2], "c": [3]})

    def test_rejects_non_integral_buffers(self):
        import pytest

        from repro.datasets.store import cache_key_buffers

        with pytest.raises(TypeError, match="integral"):
            cache_key_buffers({}, {"a": [1.5]})
        with pytest.raises(TypeError, match="integral"):
            cache_key_buffers({}, {"a": ["x"]})
        with pytest.raises(TypeError, match="integral"):
            cache_key_buffers({}, {"a": [2**70, 1.5]})

    def test_beyond_int64_columns_are_addressable(self):
        """Arbitrary-precision weights (object engine) must digest too."""
        import numpy as np

        from repro.datasets.store import cache_key_buffers

        big = cache_key_buffers({}, {"a": [2**70, 1]})
        assert big == cache_key_buffers({}, {"a": (2**70, 1)})  # container-free
        assert big != cache_key_buffers({}, {"a": [2**70, 2]})
        assert big != cache_key_buffers({}, {"a": [2**69, 1]})
        # an object-boxed column of small values digests like the plain one
        boxed = np.array([5, 6, 7], dtype=object)
        assert cache_key_buffers({}, {"a": boxed}) == cache_key_buffers(
            {}, {"a": [5, 6, 7]}
        )
        # uint64 values past int64 max must not wrap onto another column
        top = np.array([2**63], dtype=np.uint64)
        assert cache_key_buffers({}, {"a": top}) == cache_key_buffers(
            {}, {"a": [2**63]}
        )
        assert cache_key_buffers({}, {"a": top}) != cache_key_buffers(
            {}, {"a": [-(2**63)]}
        )

    def test_empty_buffer_is_legal(self):
        from repro.datasets.store import cache_key_buffers

        assert cache_key_buffers({}, {"a": []}) != cache_key_buffers({}, {})

    def test_cache_key_accepts_precanonicalised_payload(self):
        from repro.datasets.store import cache_key, canonical_json

        payload = {"b": [1, 2, 3], "a": "z"}
        canonical = canonical_json(payload)
        assert cache_key(payload) == cache_key(payload, canonical=canonical)
        # key ordering must not matter
        assert canonical == canonical_json({"a": "z", "b": [1, 2, 3]})
