"""Tests for the scheduling service (repro.service).

Everything here runs against a real socket: the server thread binds an
ephemeral port and the synchronous client talks HTTP to it.  The pool
runs in inline (thread) mode so strategies registered by the tests are
visible to the workers and backpressure can be provoked deterministically.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time

import pytest

from repro.datasets.instances import figure_2b
from repro.datasets.store import ResultCache
from repro.experiments.registry import ALGORITHMS, get_algorithm, register_algorithm
from repro.service import (
    ProtocolError,
    ServerConfig,
    ServerThread,
    ServiceClient,
    ServiceError,
    parse_request,
)
from repro.service.protocol import ExactRequest, PagingRequest, SolveRequest


TREE = figure_2b().tree
TREE_DICT = TREE.to_dict()


def _request(**overrides):
    base = {"kind": "solve", "tree": TREE_DICT, "memory": 6, "algorithm": "RecExpand"}
    base.update(overrides)
    return base


# --------------------------------------------------------------------- #
# protocol validation (no server needed)
# --------------------------------------------------------------------- #


class TestProtocolValidation:
    @pytest.mark.parametrize(
        "mutation, code",
        [
            ({"kind": "wat"}, "unknown_kind"),
            ({"tree": None}, "bad_field"),
            ({"tree": {"parents": [0, -1], "weights": [1]}}, "invalid_tree"),
            ({"tree": {"parents": [0, 0], "weights": [1, 1]}}, "invalid_tree"),
            ({"tree": {"parents": [-1, "x"], "weights": [1, 1]}}, "bad_field"),
            ({"memory": 0}, "bad_field"),
            ({"memory": "lots"}, "bad_field"),
            ({"memory": None}, "bad_field"),
            ({"algorithm": "Nope"}, "unknown_algorithm"),
            ({"timeout": -1}, "bad_field"),
            ({"timeout": "fast"}, "bad_field"),
        ],
    )
    def test_bad_solve_requests(self, mutation, code):
        with pytest.raises(ProtocolError) as err:
            parse_request(_request(**mutation))
        assert err.value.code == code

    def test_non_object_body(self):
        with pytest.raises(ProtocolError) as err:
            parse_request([1, 2, 3])
        assert err.value.code == "bad_request"

    @pytest.mark.parametrize(
        "mutation, code",
        [
            ({"policies": []}, "bad_field"),
            ({"policies": ["belady", "nope"]}, "unknown_policy"),
            ({"page_size": 0}, "bad_field"),
            ({"seed": -1}, "bad_field"),
        ],
    )
    def test_bad_paging_requests(self, mutation, code):
        with pytest.raises(ProtocolError) as err:
            parse_request(_request(kind="paging", **mutation))
        assert err.value.code == code

    @pytest.mark.parametrize(
        "mutation, code",
        [
            ({"max_states": 0}, "bad_field"),
            ({"node_limit": 65}, "bad_field"),
        ],
    )
    def test_bad_exact_requests(self, mutation, code):
        with pytest.raises(ProtocolError) as err:
            parse_request(_request(kind="exact", **mutation))
        assert err.value.code == code

    def test_valid_requests_parse(self):
        assert isinstance(parse_request(_request()), SolveRequest)
        assert isinstance(parse_request(_request(kind="paging")), PagingRequest)
        assert isinstance(parse_request(_request(kind="exact")), ExactRequest)

    def test_kind_defaults_to_solve(self):
        obj = _request()
        del obj["kind"]
        assert isinstance(parse_request(obj), SolveRequest)

    def test_key_is_content_addressed(self):
        a = parse_request(_request()).key()
        # field order must not matter
        reordered = dict(reversed(list(_request().items())))
        assert parse_request(reordered).key() == a
        # any input change must change the key
        assert parse_request(_request(memory=7)).key() != a
        assert parse_request(_request(algorithm="OptMinMem")).key() != a
        # the timeout is delivery policy, not content
        assert parse_request(_request(timeout=5)).key() == a


# --------------------------------------------------------------------- #
# server fixtures
# --------------------------------------------------------------------- #


def _slow_strategy(tree, memory):
    time.sleep(0.3)
    return get_algorithm("OptMinMem")(tree, memory)


@pytest.fixture
def slow_algorithm():
    name = "TestSlowService"
    if name not in ALGORITHMS:
        register_algorithm(name, _slow_strategy)
    yield name
    ALGORITHMS.pop(name, None)


_GATE = threading.Event()


def _gated_strategy(tree, memory):
    assert _GATE.wait(30), "test gate never opened"
    return get_algorithm("OptMinMem")(tree, memory)


@pytest.fixture
def gated_algorithm():
    """A strategy that holds its worker until the test opens the gate."""
    name = "TestGatedService"
    _GATE.clear()
    if name not in ALGORITHMS:
        register_algorithm(name, _gated_strategy)
    yield name, _GATE
    _GATE.set()  # never leave a worker thread blocked
    ALGORITHMS.pop(name, None)


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def _record_batch_sizes(pool):
    """Wrap ``pool.run_batch``; returns the list of batch sizes it saw."""
    sizes = []
    run_batch = pool.run_batch

    async def recording_run_batch(batch):
        sizes.append(len(batch))
        return await run_batch(batch)

    pool.run_batch = recording_run_batch
    return sizes


@pytest.fixture
def server(tmp_path):
    """A served instance with an on-disk cache and two inline workers."""
    cache = ResultCache(tmp_path / "cache")
    config = ServerConfig(port=0, workers=0, inline_threads=2)
    with ServerThread(config, cache=cache) as thread:
        client = ServiceClient(port=thread.port, timeout=30.0)
        assert client.wait_ready(15)
        yield thread.server, client


# --------------------------------------------------------------------- #
# round-trips over a real socket
# --------------------------------------------------------------------- #


class TestRoundTrip:
    def test_solve_matches_offline(self, server):
        _, client = server
        result = client.solve(TREE, 6, algorithm="FullRecExpand")
        offline = get_algorithm("FullRecExpand")(TREE, 6)
        assert result["io_volume"] == offline.io_volume == 3
        assert result["schedule"] == list(offline.schedule)
        assert result["performance"] == offline.performance(6)
        assert {int(v): a for v, a in result["io"].items()} == {
            v: a for v, a in enumerate(offline.io) if a
        }

    def test_paging_and_exact(self, server):
        _, client = server
        paging = client.paging(TREE, 6, policies=["belady", "lru"])
        assert [row["policy"] for row in paging["policies"]] == ["belady", "lru"]
        assert all(row["write_pages"] >= 0 for row in paging["policies"])
        exact = client.exact(TREE, 6)
        assert exact["io_volume"] == 3 and exact["optimal"]
        assert set(exact["gaps"]) == {
            "OptMinMem", "PostOrderMinIO", "RecExpand", "FullRecExpand",
        }

    def test_cli_submit_matches_cli_solve(self, server, tmp_path, capsys):
        from repro.cli import main

        _, client = server
        tree_file = tmp_path / "tree.json"
        tree_file.write_text(json.dumps(TREE_DICT))
        argv_tail = [
            "--tree", str(tree_file), "--memory", "6",
            "--algorithm", "FullRecExpand", "--show-schedule",
        ]
        assert main(["solve", *argv_tail]) == 0
        offline_out = capsys.readouterr().out
        assert (
            main(["submit", "--port", str(client.port), *argv_tail]) == 0
        )
        served_out = capsys.readouterr().out
        assert served_out == offline_out  # byte-identical, per the contract

    def test_cli_submit_paging_matches_cli_paging(self, server, tmp_path, capsys):
        """Default policy set (and output) must match the offline command."""
        from repro.cli import main

        _, client = server
        tree_file = tmp_path / "tree.json"
        tree_file.write_text(json.dumps(TREE_DICT))
        argv_tail = ["--tree", str(tree_file), "--memory", "8", "--page-size", "2"]
        assert main(["paging", *argv_tail]) == 0
        offline_out = capsys.readouterr().out
        assert (
            main(
                ["submit", "--port", str(client.port), "--kind", "paging", *argv_tail]
            )
            == 0
        )
        assert capsys.readouterr().out == offline_out

    def test_oversized_header_is_a_400_not_a_dropped_connection(self, server):
        _, client = server
        import http.client

        conn = http.client.HTTPConnection(client.host, client.port, timeout=10)
        try:
            conn.putrequest("GET", "/healthz", skip_host=True)
            conn.putheader("Host", "localhost")
            conn.putheader("X-Junk", "j" * 100_000)  # blows the 64 KiB line limit
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
            body = json.loads(response.read())
            assert body["error"]["code"] == "bad_request"
        finally:
            conn.close()

    def test_error_envelope_over_socket(self, server):
        _, client = server
        with pytest.raises(ServiceError) as err:
            client.submit(_request(algorithm="Nope"))
        assert err.value.code == "unknown_algorithm"
        assert err.value.status == 400

    def test_unsolvable_is_a_422(self, server):
        _, client = server
        # memory below the tree's minimal feasible bound
        with pytest.raises(ServiceError) as err:
            client.submit(_request(memory=1))
        assert err.value.code == "unsolvable"
        assert err.value.status == 422

    def test_unknown_endpoint_404(self, server):
        _, client = server
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/nope")
        assert err.value.code == "not_found"

    def test_health_and_metrics_shape(self, server):
        _, client = server
        assert client.health()["ok"] is True
        client.solve(TREE, 6)
        metrics = client.metrics()
        assert metrics["queue_depth"] == 0
        assert metrics["requests"]["completed"] >= 1
        assert {"hits", "misses"} <= set(metrics["cache"])
        assert {"p50", "p90", "p99", "count"} <= set(metrics["latency_ms"])
        assert metrics["latency_ms"]["count"] >= 1


# --------------------------------------------------------------------- #
# dedup, caching, backpressure, timeouts
# --------------------------------------------------------------------- #


class TestDedupAndCache:
    def test_repeat_request_is_a_cache_hit(self, server):
        srv, client = server
        first = client.submit(_request())
        second = client.submit(_request())
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["result"] == first["result"]
        assert srv.metrics.computed == 1

    def test_unwritable_cache_is_counted_not_fatal(self, tmp_path):
        # a regular file where the cache directory should be: every put
        # fails with an OSError, whoever the test runs as
        root = tmp_path / "cache"
        root.write_text("not a directory")
        config = ServerConfig(port=0, workers=0, inline_threads=1)
        with ServerThread(config, cache=ResultCache(root)) as thread:
            client = ServiceClient(port=thread.port, timeout=30.0)
            assert client.wait_ready(15)
            envelope = client.submit(_request())
            assert envelope["ok"] is True
            assert client.metrics()["cache"]["write_errors"] == 1
            text = thread.server.registry.render_prometheus()
            assert "cache_write_errors_total 1" in text.splitlines()

    def test_identical_concurrent_submissions_compute_once(
        self, server, slow_algorithm
    ):
        srv, client = server
        request = _request(algorithm=slow_algorithm)
        envelopes = []
        errors = []

        def submit():
            try:
                envelopes.append(client.submit(request))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=submit) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(envelopes) == 4
        results = [e["result"] for e in envelopes]
        assert all(r == results[0] for r in results)
        # one computation served everybody: the rest were coalesced
        assert srv.metrics.computed == 1
        assert srv.metrics.deduped_inflight >= 1
        assert sum(1 for e in envelopes if e["deduped"]) >= 1

    def test_sixteen_concurrent_clients_zero_drops(self, server):
        srv, client = server
        outcomes = []
        errors = []

        def submit(i):
            try:
                outcomes.append(client.solve(TREE, 6 + i))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(outcomes) == 16
        assert srv.metrics.rejected == 0
        # every memory bound is a distinct request; all computed, none dropped
        offline = {6 + i: get_algorithm("RecExpand")(TREE, 6 + i).io_volume for i in range(16)}
        assert sorted(r["io_volume"] for r in outcomes) == sorted(offline.values())


class TestBackpressureAndTimeouts:
    def test_full_queue_rejects_with_429(self, tmp_path, slow_algorithm):
        config = ServerConfig(
            port=0,
            workers=0,
            inline_threads=1,  # one busy worker ...
            queue_limit=1,  # ... and a single queue slot
            max_batch=1,
        )
        with ServerThread(config, cache=ResultCache(tmp_path / "cache")) as thread:
            client = ServiceClient(port=thread.port, timeout=30.0)
            assert client.wait_ready(15)
            rejected = []
            succeeded = []

            def submit(i):
                try:
                    succeeded.append(
                        client.submit(_request(algorithm=slow_algorithm, memory=6 + i))
                    )
                except ServiceError as exc:
                    rejected.append(exc)

            threads = [threading.Thread(target=submit, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert succeeded, "the service must keep serving under overload"
            assert rejected, "a full queue must reject, not buffer unboundedly"
            assert all(e.code == "queue_full" and e.status == 429 for e in rejected)
            assert thread.server.metrics.rejected == len(rejected)

    def test_deadline_returns_504_but_computation_completes(
        self, server, slow_algorithm
    ):
        srv, client = server
        request = _request(algorithm=slow_algorithm, timeout=0.05)
        with pytest.raises(ServiceError) as err:
            client.submit(request)
        assert err.value.code == "timeout"
        assert err.value.status == 504
        # the abandoned computation still lands in the cache for the retry
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if srv.cache.get(parse_request(request).key()) is not None:
                break
            time.sleep(0.05)
        retry = client.submit(_request(algorithm=slow_algorithm))
        assert retry["cached"] is True


# --------------------------------------------------------------------- #
# shared-memory transport (the forest wire path to process workers)
# --------------------------------------------------------------------- #


class TestSharedMemoryTransport:
    def _payloads(self):
        import numpy as np

        from repro.analysis.bounds import memory_bounds
        from repro.datasets.synth import synth_instance

        payloads = []
        for n, algorithm in ((60, "PostOrderMinIO"), (700, "OptMinMem"), (40, "RecExpand")):
            tree = synth_instance(n, seed=7)
            bounds = memory_bounds(tree)
            payloads.append(
                {
                    "kind": "solve",
                    "tree": tree.to_dict(),
                    "memory": bounds.mid if bounds.has_io_regime else bounds.peak_incore + 1,
                    "algorithm": algorithm,
                }
            )
        return payloads

    def test_trusted_tree_key_matches_tuple_key(self):
        import numpy as np

        payload = _request()
        parsed = parse_request(payload)
        trusted = parse_request(
            payload,
            trusted_tree=(
                np.asarray(parsed.parents),
                np.asarray(parsed.weights),
            ),
        )
        assert trusted.key() == parsed.key()
        # a second call reuses the cached digest
        assert trusted.key() is trusted.key()

    def test_pack_and_execute_in_process(self):
        import pickle

        from repro.service.pool import (
            _pack_batch,
            _release_shm,
            execute_many,
            execute_payload,
        )

        payloads = self._payloads()
        requests = [parse_request(p) for p in payloads]
        packed = _pack_batch(requests)
        assert packed is not None
        shm, stripped = packed
        try:
            # the columns ride the segment; the requests travel without
            # them, carrying the key the server derived
            assert all(r.parents == () and r.weights == () for r in stripped)
            shipped = pickle.loads(pickle.dumps(stripped))
            assert [r.__dict__["_cached_key"] for r in shipped] == [
                r.key() for r in requests
            ]
            got = execute_many(shipped, True, shm.name)
        finally:
            _release_shm(shm)
        assert got == [execute_payload(p, seed_rng=True) for p in payloads]
        assert all(envelope["ok"] for envelope in got)

    def test_invalid_scalars_still_rejected_on_shm_path(self):
        import dataclasses

        from repro.service.pool import _pack_batch, _release_shm, execute_many

        # scalars are validated once, before anything is packed ...
        with pytest.raises(ProtocolError) as err:
            parse_request(_request(algorithm="NoSuchAlgorithm"))
        assert err.value.code == "unknown_algorithm"
        # ... and a request built around that check still fails alone
        bad = dataclasses.replace(
            parse_request(_request()), algorithm="NoSuchAlgorithm"
        )
        packed = _pack_batch([bad])
        assert packed is not None
        shm, stripped = packed
        try:
            (envelope,) = execute_many(stripped, True, shm.name)
        finally:
            _release_shm(shm)
        assert envelope["ok"] is False
        assert "NoSuchAlgorithm" in envelope["error"]["message"]

    def test_lost_segment_degrades_to_error_envelopes(self):
        from repro.service.pool import execute_many

        stripped = [parse_request(_request())] * 2
        out = execute_many(stripped, True, "psm_repro_gone_missing")
        assert [e["error"]["code"] for e in out] == ["internal", "internal"]

    def test_worker_pool_round_trip_and_fallback(self):
        import asyncio

        from repro.service.pool import WorkerPool, execute_payload

        payloads = self._payloads()
        expected = [execute_payload(p, seed_rng=True) for p in payloads]
        requests = [parse_request(p) for p in payloads]

        async def drive():
            pool = WorkerPool(jobs=1, shm_min_nodes=0)
            assert pool.shm_transport
            try:
                pool.warm_up()
                assert await pool.run_batch(requests) == expected
                assert pool.shm_batches == 1
                pool.shm_transport = False  # pickle fallback, same envelopes
                assert await pool.run_batch(requests) == expected
                assert pool.shm_batches == 1
            finally:
                pool.shutdown()

        asyncio.run(drive())

    def test_small_batches_stay_on_the_pickle_path(self):
        """Below the node floor a segment cannot pay for itself."""
        from repro.service.pool import _pack_batch, _release_shm

        requests = [parse_request(p) for p in self._payloads()]  # ~800 nodes
        assert _pack_batch(requests, min_nodes=100_000) is None
        packed = _pack_batch(requests, min_nodes=0)
        assert packed is not None
        _release_shm(packed[0])

    def test_inline_mode_never_packs(self):
        from repro.service.pool import WorkerPool

        pool = WorkerPool(jobs=0, shm_transport=True)
        try:
            assert pool.shm_transport is False
        finally:
            pool.shutdown()

    def test_served_results_identical_with_and_without_shm(self, tmp_path):
        """End to end over the socket: worker processes, both transports."""
        from repro.service.pool import execute_payload

        payloads = self._payloads()
        expected = [execute_payload(p, seed_rng=True)["result"] for p in payloads]
        for shm in (True, False):
            config = ServerConfig(
                port=0, workers=1, shm_transport=shm, shm_min_nodes=0
            )
            with ServerThread(config) as server:
                client = ServiceClient(port=server.port)
                assert client.wait_ready(30)
                for payload, want in zip(payloads, expected):
                    envelope = client.submit(payload)
                    assert envelope["ok"] is True
                    assert envelope["result"] == want


class TestLargeRequestTreePath:
    def test_build_tree_switches_representation(self):
        from repro.core.arraytree import ArrayTree
        from repro.core.engine import AUTO_THRESHOLD
        from repro.core.tree import TaskTree
        from repro.datasets.synth import synth_instance
        from repro.service.pool import build_tree

        small = synth_instance(AUTO_THRESHOLD - 1, seed=3)
        large = synth_instance(AUTO_THRESHOLD, seed=3)
        assert isinstance(build_tree(small.parents, small.weights), TaskTree)
        assert isinstance(build_tree(large.parents, large.weights), ArrayTree)

    def test_build_tree_falls_back_beyond_int64(self):
        from repro.core.tree import TaskTree
        from repro.service.pool import build_tree

        n = 600
        parents = [-1] + [0] * (n - 1)
        weights = [2**70] * n  # object engine territory
        assert isinstance(build_tree(parents, weights), TaskTree)

    def test_large_solve_and_paging_match_object_path(self):
        from repro.analysis.bounds import memory_bounds
        from repro.core.tree import TaskTree
        from repro.datasets.synth import synth_instance
        from repro.service.pool import run_paging, run_solve
        from repro.service.protocol import PagingRequest, SolveRequest

        tree = synth_instance(700, seed=11)
        bounds = memory_bounds(tree)
        memory = bounds.mid
        solve = SolveRequest(
            parents=tree.parents,
            weights=tree.weights,
            memory=memory,
            algorithm="PostOrderMinIO",
        )
        got = run_solve(solve)
        want = run_solve(solve, tree=TaskTree(tree.parents, tree.weights))
        assert got == want

        paging = PagingRequest(
            parents=tree.parents,
            weights=tree.weights,
            memory=memory,
            algorithm="PostOrderMinIO",
            page_size=4,
            policies=("belady", "lru"),
            seed=0,
        )
        got = run_paging(paging)
        want = run_paging(paging, tree=TaskTree(tree.parents, tree.weights))
        assert got == want


class TestShmBudgetFallback:
    def test_beyond_int64_batches_take_the_pickle_path(self):
        """Only int64 columns fit the segment; the object tree takes the rest."""
        from repro.service.pool import _pack_batch, _release_shm

        big = 2**61  # int64, though the three sum past the flat budget
        over_budget = SolveRequest(
            parents=(-1, 0, 0), weights=(big, big, big), memory=1,
            algorithm="PostOrderMinIO",
        )
        packed = _pack_batch([over_budget], min_nodes=0)
        assert packed is not None  # the worker builds a TaskTree: no budget
        _release_shm(packed[0])
        huge = parse_request({
            "kind": "solve",
            "tree": {"parents": [-1, 0], "weights": [2**70, 2**70]},
            "memory": 1,
            "algorithm": "PostOrderMinIO",
        })
        assert _pack_batch([huge], min_nodes=0) is None  # beyond int64

    def test_over_budget_request_still_served(self):
        """End to end: the over-budget tree is answered, not poisoned."""
        import asyncio

        from repro.service.pool import WorkerPool, execute_many

        big = 2**61
        requests = [
            SolveRequest(
                parents=(-1, 0, 0), weights=(big, big, big), memory=3 * big,
                algorithm="PostOrderMinIO",
            ),
            parse_request(_request()),
        ]
        expected = execute_many(requests, True)
        assert all(envelope["ok"] for envelope in expected)

        async def drive():
            pool = WorkerPool(jobs=1, shm_min_nodes=0)
            try:
                pool.warm_up()
                assert await pool.run_batch(requests) == expected
                assert pool.shm_batches == 1
            finally:
                pool.shutdown()

        asyncio.run(drive())


# --------------------------------------------------------------------- #
# one failing request fails only itself
# --------------------------------------------------------------------- #


def _boom_strategy(tree, memory):
    raise RuntimeError("boom in the strategy")


@pytest.fixture
def boom_algorithm():
    name = "TestBoomService"
    if name not in ALGORITHMS:
        register_algorithm(name, _boom_strategy)
    yield name
    ALGORITHMS.pop(name, None)


class TestPerRequestGuard:
    def _assert_good_and_bad(self, envelopes):
        good, bad = envelopes
        assert good["ok"] is True
        assert good["result"]["io_volume"] == get_algorithm("RecExpand")(TREE, 6).io_volume
        assert bad["ok"] is False
        assert bad["error"]["code"] == "internal"
        assert "RuntimeError: boom in the strategy" in bad["error"]["message"]

    def test_execute_many(self, boom_algorithm):
        from repro.service.pool import execute_many

        envelopes = execute_many([
            parse_request(_request()),
            parse_request(_request(algorithm=boom_algorithm)),
        ])
        self._assert_good_and_bad(envelopes)

    def test_execute_many_shm(self, boom_algorithm):
        from repro.service.pool import _pack_batch, _release_shm, execute_many

        packed = _pack_batch([
            parse_request(_request()),
            parse_request(_request(algorithm=boom_algorithm)),
        ])
        assert packed is not None
        shm, stripped = packed
        try:
            envelopes = execute_many(stripped, True, shm.name)
        finally:
            _release_shm(shm)
        self._assert_good_and_bad(envelopes)

    def test_batch_mates_of_a_failing_request_get_200(
        self, tmp_path, boom_algorithm, gated_algorithm
    ):
        config = ServerConfig(port=0, workers=0, inline_threads=1)
        with ServerThread(config, cache=ResultCache(tmp_path / "cache")) as thread:
            sizes = _record_batch_sizes(thread.server.pool)
            client = ServiceClient(port=thread.port, timeout=30.0)
            assert client.wait_ready(15)
            outcomes = {}

            def send(name, payload):
                try:
                    outcomes[name] = ("ok", client.submit(payload))
                except ServiceError as exc:
                    outcomes[name] = ("error", exc)

            # the single worker is busy, so the pair queues up together
            name, gate = gated_algorithm
            busy = threading.Thread(
                target=send, args=("busy", _request(algorithm=name))
            )
            busy.start()
            _wait_for(lambda: sizes == [1])
            threads = [
                threading.Thread(target=send, args=("good", _request())),
                threading.Thread(
                    target=send, args=("bad", _request(algorithm=boom_algorithm))
                ),
            ]
            for t in threads:
                t.start()
            _wait_for(lambda: thread.server._queue.qsize() == 2)
            gate.set()
            for t in [busy, *threads]:
                t.join(30)
            assert sizes == [1, 2]
            assert thread.server.metrics.batches == 2  # the pair shared one
        kind, good = outcomes["good"]
        assert kind == "ok" and good["ok"] is True
        kind, bad = outcomes["bad"]
        assert kind == "error"
        assert bad.status == 500 and bad.code == "internal"


# --------------------------------------------------------------------- #
# cache write-back runs off the dispatch slot
# --------------------------------------------------------------------- #


class _SlowCache(ResultCache):
    """Records every write; each one sleeps before it reaches the disk."""

    def __init__(self, root, events, delay):
        super().__init__(root)
        self.events = events
        self.delay = delay

    def put(self, key, value):
        time.sleep(self.delay)
        super().put(key, value)
        self.events.append(("written", key, time.perf_counter()))


class TestWriteBackOffDispatchSlot:
    def test_next_batch_reaches_the_pool_during_write_back(self, tmp_path):
        events = []
        cache = _SlowCache(tmp_path / "cache", events, delay=0.4)
        config = ServerConfig(port=0, workers=0, inline_threads=1, max_batch=1)
        payloads = [_request(memory=6), _request(memory=7)]
        keys = [parse_request(p).key() for p in payloads]
        with ServerThread(config, cache=cache) as thread:
            pool = thread.server.pool
            run_batch = pool.run_batch

            async def recording_run_batch(batch):
                events.append(("dispatched", batch[0].key(), time.perf_counter()))
                return await run_batch(batch)

            pool.run_batch = recording_run_batch
            client = ServiceClient(port=thread.port, timeout=30.0)
            assert client.wait_ready(15)
            on_disk_at_reply = {}

            def send(payload, key):
                client.submit(payload)
                on_disk_at_reply[key] = ResultCache(tmp_path / "cache").get(key)

            threads = [
                threading.Thread(target=send, args=(p, k))
                for p, k in zip(payloads, keys)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        # every reply found its own entry already on disk
        assert all(on_disk_at_reply[k] is not None for k in keys)
        when = {(kind, key): t for kind, key, t in events}
        first, second = sorted(keys, key=lambda k: when[("dispatched", k)])
        # with one worker, the second batch was dispatched while the
        # first batch's entry was still being written
        assert when[("dispatched", second)] < when[("written", first)]

    def test_write_backs_stay_bounded_by_pool_concurrency(self, tmp_path):
        events = []
        cache = _SlowCache(tmp_path / "cache", events, delay=0.3)
        config = ServerConfig(port=0, workers=0, inline_threads=1, max_batch=1)
        payloads = [_request(memory=m) for m in (6, 7, 8)]
        with ServerThread(config, cache=cache) as thread:
            pool = thread.server.pool
            run_batch = pool.run_batch

            async def recording_run_batch(batch):
                events.append(("dispatched", batch[0].key(), time.perf_counter()))
                return await run_batch(batch)

            pool.run_batch = recording_run_batch
            client = ServiceClient(port=thread.port, timeout=30.0)
            assert client.wait_ready(15)
            threads = [
                threading.Thread(target=client.submit, args=(p,)) for p in payloads
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        dispatched = sorted(t for kind, _, t in events if kind == "dispatched")
        written = sorted(t for kind, _, t in events if kind == "written")
        assert len(dispatched) == len(written) == 3
        # one write-back slot: the third batch waits for the first write
        assert dispatched[2] > written[0]


# --------------------------------------------------------------------- #
# work-conserving dispatch: a free worker gets the ready set at once
# --------------------------------------------------------------------- #


class TestWorkConservingDispatch:
    def test_lone_request_dispatches_without_a_timed_wait(self, monkeypatch):
        import asyncio

        timed_queue_waits = []
        wait_for = asyncio.wait_for

        def guarded_wait_for(awaitable, timeout):
            if getattr(awaitable, "cr_code", None) is asyncio.Queue.get.__code__:
                timed_queue_waits.append(timeout)
                awaitable.close()
                raise AssertionError("the dispatcher waited for more requests")
            return wait_for(awaitable, timeout)

        monkeypatch.setattr(asyncio, "wait_for", guarded_wait_for)
        config = ServerConfig(port=0, workers=0, inline_threads=1)
        with ServerThread(config) as thread:
            sizes = _record_batch_sizes(thread.server.pool)
            client = ServiceClient(port=thread.port, timeout=30.0)
            assert client.wait_ready(15)
            envelope = client.submit(_request(timeout=5))
        assert envelope["ok"] is True
        assert sizes == [1]
        assert timed_queue_waits == []

    def test_requests_queued_behind_a_busy_worker_leave_as_one_batch(
        self, gated_algorithm
    ):
        name, gate = gated_algorithm
        config = ServerConfig(port=0, workers=0, inline_threads=1)
        with ServerThread(config) as thread:
            sizes = _record_batch_sizes(thread.server.pool)
            client = ServiceClient(port=thread.port, timeout=30.0)
            assert client.wait_ready(15)
            busy = threading.Thread(
                target=client.submit, args=(_request(algorithm=name),)
            )
            busy.start()
            _wait_for(lambda: sizes == [1])
            queued = [
                threading.Thread(target=client.submit, args=(_request(memory=m),))
                for m in (7, 8, 9)
            ]
            for t in queued:
                t.start()
            _wait_for(lambda: thread.server._queue.qsize() == 3)
            gate.set()
            for t in [busy, *queued]:
                t.join(30)
            assert sizes == [1, 3]
            assert thread.server.metrics.computed == 4

    def test_pool_path_neither_parses_nor_rekeys(self, monkeypatch):
        import asyncio

        import repro.api.requests as requests_module
        import repro.service.pool as pool_module
        from repro.service.pool import WorkerPool

        requests = [parse_request(_request(memory=m)) for m in (6, 7)]
        keys = [r.key() for r in requests]

        def refuse(*args, **kwargs):
            raise AssertionError("the pool path must not parse or re-key")

        monkeypatch.setattr(pool_module, "parse_request", refuse)
        monkeypatch.setattr(requests_module, "parse_request", refuse)
        monkeypatch.setattr(requests_module, "cache_key_buffers", refuse)
        pool = WorkerPool(0)
        try:
            envelopes = asyncio.run(pool.run_batch(requests))
        finally:
            pool.shutdown()
        assert [e["ok"] for e in envelopes] == [True, True]
        assert [e["key"] for e in envelopes] == keys


# --------------------------------------------------------------------- #
# validation happens once, vectorised, with TaskTree's messages
# --------------------------------------------------------------------- #


class TestValidateOnce:
    #: the messages both encodings gave before the vectorised check
    #: (TaskTree's), pinned byte for byte
    MALFORMED = [
        ([-1, -1, 0], [1, 1, 1], "two roots: 0 and 1"),
        ([-1, 2, 1], [1, 1, 1], "graph is not connected / contains a cycle"),
        ([-1, 5], [1, 1], "node 1 has out-of-range parent 5"),
        ([-1, 0], [1, -2], "weight of node 1 is negative: -2"),
    ]

    @pytest.mark.parametrize("parents, weights, message", MALFORMED)
    def test_invalid_tree_messages_match_on_both_encodings(
        self, parents, weights, message
    ):
        from repro.service.wire import encode_request_frame, request_from_frame

        payload = _request(tree={"parents": parents, "weights": weights})
        for decode in (
            parse_request,
            lambda p: request_from_frame(encode_request_frame(p)),
        ):
            with pytest.raises(ProtocolError) as err:
                decode(payload)
            assert err.value.code == "invalid_tree"
            assert err.value.message == message

    def test_weights_beyond_int64_are_accepted(self):
        request = parse_request(
            _request(tree={"parents": [-1, 0], "weights": [2**70, 1]})
        )
        assert request.weights == (2**70, 1)

    def test_trees_beyond_the_flat_budget_are_solved(self):
        """A chain whose weights sum past int64 passes both encodings."""
        from repro.api import LocalBackend
        from repro.service.wire import encode_request_frame, request_from_frame

        n = 10_000
        weight = 10**15  # each fits int64; their sum does not
        payload = _request(
            tree={"parents": [-1] + list(range(n - 1)), "weights": [weight] * n},
            memory=weight,
            algorithm="PostOrderMinIO",
        )
        json_request = parse_request(payload)
        frame_request = request_from_frame(encode_request_frame(payload))
        assert json_request == frame_request
        outcome = LocalBackend().submit(json_request)
        assert outcome.ok and outcome.result["io_volume"] == 0

    def test_no_tree_object_is_kept_on_the_request(self):
        request = parse_request(_request())
        assert not hasattr(request, "validated_tree")
        assert "_validated_tree" not in request.__dict__


# --------------------------------------------------------------------- #
# write-back failures and dead workers: answered, never stranded
# --------------------------------------------------------------------- #


class _BrokenCache(ResultCache):
    """A cache whose writes fail with something other than OSError."""

    def put(self, key, value):
        raise ValueError("cache backend is broken")


class TestFailureRecovery:
    @pytest.mark.parametrize("memo_entries", [0, 4096])
    def test_failed_write_back_still_answers(self, tmp_path, memo_entries):
        config = ServerConfig(
            port=0, workers=0, inline_threads=1, memo_entries=memo_entries
        )
        with ServerThread(config, cache=_BrokenCache(tmp_path / "cache")) as thread:
            client = ServiceClient(port=thread.port, timeout=30.0)
            assert client.wait_ready(15)
            t0 = time.monotonic()
            first = client.submit(_request(timeout=2))
            again = client.submit(_request(timeout=2))
            elapsed = time.monotonic() - t0
            server = thread.server
            assert first["ok"] is True and again["ok"] is True
            assert elapsed < 2.0  # answered, not timed out
            assert len(server._inflight) == 0
            # with the memo on, the repeat is a memo hit and writes nothing
            writes = 2 if memo_entries == 0 else 1
            assert server._metrics_body()["cache"]["write_errors"] == writes

    def test_killed_worker_process_is_replaced(self):
        config = ServerConfig(port=0, workers=1)
        with ServerThread(config) as thread:
            client = ServiceClient(port=thread.port, timeout=60.0)
            assert client.wait_ready(30)
            assert client.submit(_request())["ok"] is True
            pool = thread.server.pool
            for pid in list(pool._executor._processes):
                os.kill(pid, signal.SIGKILL)
            envelope = client.submit(_request(memory=7))
            assert envelope["ok"] is True
            assert pool.restarts == 1
            restarts = thread.server.registry.counter("pool_restarts_total")
            assert restarts.value == 1
            assert client.health()["ok"] is True

    def test_a_second_break_in_a_row_answers_internal(self, worker_killer):
        config = ServerConfig(port=0, workers=1)
        with ServerThread(config) as thread:
            client = ServiceClient(port=thread.port, timeout=60.0)
            assert client.wait_ready(30)
            with pytest.raises(ServiceError) as err:
                client.submit(_request(algorithm=worker_killer))
            assert err.value.status == 500 and err.value.code == "internal"
            assert thread.server.pool.restarts == 1  # one retry, not a loop
            # the next batch gets a fresh executor and its answer
            assert client.submit(_request())["ok"] is True
            assert thread.server.pool.restarts == 2


def _kill_own_worker(tree, memory):
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.fixture
def worker_killer():
    """A strategy that kills the worker process running it (fork start)."""
    name = "TestWorkerKiller"
    if name not in ALGORITHMS:
        register_algorithm(name, _kill_own_worker)
    yield name
    ALGORITHMS.pop(name, None)
