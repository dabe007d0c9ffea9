"""Backend-equivalence property harness for the typed solver API.

The contract of :mod:`repro.api` is that the three execution backends —
:class:`~repro.api.backends.LocalBackend` (in-process),
:class:`~repro.api.backends.PoolBackend` (embedded worker pool) and
:class:`~repro.api.backends.RemoteBackend` (HTTP service) — are
interchangeable: an identical request must produce a **byte-identical
canonical outcome** and an **identical cache key** on every one of
them, and a result cache written by any backend must serve warm hits to
all the others.

~50 seeded trees cycling through every generator family the repository
has (the same pool as the kernel cross-validation harness) are solved
through all three backends, mixing solve/paging/exact kinds and
algorithms; exact equality (never "close") is asserted throughout.
Error outcomes are part of the contract too: the same infeasible
request must fail with the same stable code everywhere.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.bounds import memory_bounds
from repro.api import (
    LocalBackend,
    Outcome,
    PoolBackend,
    ProtocolError,
    RemoteBackend,
    parse_request,
)
from repro.datasets.store import ResultCache
from repro.service.server import ServerConfig, ServerThread

from tests.test_kernel_crossval import FAMILIES, _make_tree

BASE_SEED = 20170417
NUM_TREES = 48  # a multiple of the family count; "~50" per the contract

ALGORITHMS = ("RecExpand", "PostOrderMinIO", "OptMinMem", "FullRecExpand")


def _requests():
    """~50 mixed-kind requests over seeded mixed-family trees."""
    requests = []
    for i in range(NUM_TREES):
        family = FAMILIES[i % len(FAMILIES)]
        rng = np.random.default_rng(BASE_SEED + 104729 * i)
        tree = _make_tree(family, int(rng.integers(2, 64)), rng)
        bounds = memory_bounds(tree)
        memory = bounds.mid if bounds.has_io_regime else bounds.peak_incore + 1
        memory = max(1, memory)
        body = {
            "kind": "solve",
            "tree": {"parents": list(tree.parents), "weights": list(tree.weights)},
            "memory": memory,
            "algorithm": ALGORITHMS[i % len(ALGORITHMS)],
        }
        if i % 6 == 4:
            # page_size 1 keeps the mid bound feasible (larger pages can
            # round a feasible memory down below a node's frame need)
            body |= {"kind": "paging", "page_size": 1, "policies": ["belady", "lru"]}
        elif i % 6 == 5 and tree.n <= 16:
            body |= {"kind": "exact", "node_limit": 16}
        requests.append(parse_request(body))
    return requests


@pytest.fixture(scope="module")
def requests():
    return _requests()


@pytest.fixture(scope="module")
def local_outcomes(requests):
    """The reference run: LocalBackend, no cache."""
    with LocalBackend() as backend:
        return backend.run(requests)


class TestBackendEquivalence:
    def test_local_outcomes_are_sound(self, requests, local_outcomes):
        assert len(local_outcomes) == len(requests)
        assert all(isinstance(o, Outcome) for o in local_outcomes)
        assert all(o.ok for o in local_outcomes)
        assert all(o.backend == "local" for o in local_outcomes)
        # keys come from the one canonical derivation
        assert [o.key for o in local_outcomes] == [r.key() for r in requests]

    def test_pool_backend_matches_local(self, requests, local_outcomes):
        with PoolBackend(jobs=0) as backend:
            outcomes = backend.run(requests)
        assert [o.key for o in outcomes] == [o.key for o in local_outcomes]
        assert [o.canonical() for o in outcomes] == [
            o.canonical() for o in local_outcomes
        ]
        assert all(o.backend == "pool" for o in outcomes)

    def test_remote_backend_matches_local(self, requests, local_outcomes):
        config = ServerConfig(port=0, workers=0, inline_threads=2)
        with ServerThread(config) as thread:
            backend = RemoteBackend(port=thread.port)
            outcomes = backend.run(requests)
        assert [o.key for o in outcomes] == [o.key for o in local_outcomes]
        assert [o.canonical() for o in outcomes] == [
            o.canonical() for o in local_outcomes
        ]
        assert all(o.backend == "remote" for o in outcomes)


class TestWarmCacheSharing:
    """A cache written by one backend is warm for every other."""

    def test_cache_flows_local_to_pool_to_remote(
        self, tmp_path, requests, local_outcomes
    ):
        root = tmp_path / "shared-cache"
        with LocalBackend(cache=ResultCache(root)) as backend:
            cold = backend.run(requests)
        assert all(not o.cached for o in cold)
        assert [o.canonical() for o in cold] == [
            o.canonical() for o in local_outcomes
        ]

        # the pool backend never computes: every request is a warm hit
        pool_cache = ResultCache(root)
        with PoolBackend(jobs=0, cache=pool_cache) as backend:
            warm = backend.run(requests)
        assert all(o.cached for o in warm)
        assert pool_cache.misses == 0
        assert [o.canonical() for o in warm] == [o.canonical() for o in cold]

        # ... and so is a server pointed at the same directory
        config = ServerConfig(port=0, workers=0, inline_threads=2)
        with ServerThread(config, cache=ResultCache(root)) as thread:
            served = RemoteBackend(port=thread.port).run(requests)
            assert thread.server.metrics.computed == 0
        assert all(o.cached for o in served)
        assert [o.canonical() for o in served] == [o.canonical() for o in cold]

    def test_cache_flows_remote_back_to_local(self, tmp_path, requests):
        root = tmp_path / "server-cache"
        config = ServerConfig(port=0, workers=0, inline_threads=2)
        with ServerThread(config, cache=ResultCache(root)) as thread:
            served = RemoteBackend(port=thread.port).run(requests[:8])
        local_cache = ResultCache(root)
        with LocalBackend(cache=local_cache) as backend:
            warm = backend.run(requests[:8])
        assert all(o.cached for o in warm)
        assert local_cache.misses == 0
        assert [o.canonical() for o in warm] == [o.canonical() for o in served]


class TestErrorEquivalence:
    """The same invalid request fails identically on every backend."""

    def _infeasible(self):
        # memory far below the minimal feasible bound: validation passes,
        # the solver refuses — the "unsolvable" execution error
        return parse_request(
            {
                "kind": "solve",
                "tree": {"parents": [-1, 0, 0], "weights": [5, 7, 9]},
                "memory": 1,
                "algorithm": "RecExpand",
            }
        )

    def test_unsolvable_code_is_backend_independent(self):
        request = self._infeasible()
        with LocalBackend() as local, PoolBackend(jobs=0) as pool:
            outcomes = [local.submit(request), pool.submit(request)]
        config = ServerConfig(port=0, workers=0)
        with ServerThread(config) as thread:
            outcomes.append(RemoteBackend(port=thread.port).submit(request))
        assert all(not o.ok for o in outcomes)
        assert {o.error_code for o in outcomes} == {"unsolvable"}
        canonicals = {o.canonical() for o in outcomes}
        assert len(canonicals) == 1, canonicals
        # the mapped exception carries the shared exit contract
        for outcome in outcomes:
            with pytest.raises(ProtocolError) as err:
                outcome.raise_for_error()
            assert err.value.exit_code == 2

    def test_validation_rejects_before_any_backend(self):
        with pytest.raises(ProtocolError) as err:
            parse_request({"kind": "solve", "tree": None, "memory": 1})
        assert err.value.code == "bad_field"
        assert err.value.exit_code == 2

    def test_worker_defence_envelope_carries_bare_message(self):
        """The code rides in its own field; the message must not repeat it."""
        from repro.service.pool import execute_payload

        envelope = execute_payload({"kind": "solve", "tree": None, "memory": 1})
        assert envelope["error"]["code"] == "bad_field"
        assert not envelope["error"]["message"].startswith("[")


class TestBackendContractEdges:
    def _solve(self):
        return parse_request(
            {
                "kind": "solve",
                "tree": {"parents": [-1, 0, 0], "weights": [2, 3, 4]},
                "memory": 9,
                "algorithm": "RecExpand",
            }
        )

    def test_pool_backend_usable_from_inside_a_running_loop(self):
        import asyncio

        request = self._solve()
        with LocalBackend() as local, PoolBackend(jobs=0) as pool:
            want = local.submit(request).canonical()

            async def drive():
                # blocking by contract, but must not raise RuntimeError
                return pool.submit(request)

            got = asyncio.run(drive())
        assert got.canonical() == want

    def test_batch_rejection_is_independent_of_cache_state(self, tmp_path):
        from repro.api import BatchRequest
        from repro.datasets.store import ResultCache

        batch = BatchRequest(
            trees=(((-1, 0, 0), (2, 3, 4)),), algorithms=("RecExpand",)
        )
        root = tmp_path / "cache"
        with LocalBackend(cache=ResultCache(root)) as local:
            assert local.submit(batch).ok  # populates the shared cache
        with PoolBackend(jobs=0, cache=ResultCache(root)) as pool:
            with pytest.raises(ProtocolError) as err:
                pool.submit(batch)  # rejected even though the key is cached
        assert err.value.code == "unknown_kind"


class TestCrossEncodingEquivalence:
    """JSON and binary wire paths are one protocol, not two.

    The same 48-tree harness runs over both encodings (sync JSON
    client, sync binary client, async pipelined binary client) and
    everything must line up exactly: byte-identical canonical Outcome
    halves, identical cache keys, and warm hits flowing freely between
    a JSON client and a binary client in either direction.
    """

    def test_binary_path_matches_json_path(self, requests, local_outcomes):
        config = ServerConfig(port=0, workers=0, inline_threads=2)
        with ServerThread(config) as thread:
            json_run = RemoteBackend(port=thread.port, wire="json").run(requests)
            binary_run = RemoteBackend(port=thread.port, wire="binary").run(requests)
        want_keys = [r.key() for r in requests]
        assert [o.key for o in json_run] == want_keys
        assert [o.key for o in binary_run] == want_keys
        want = [o.canonical() for o in local_outcomes]
        assert [o.canonical() for o in json_run] == want
        assert [o.canonical() for o in binary_run] == want

    def test_async_pipelined_client_matches_local(self, requests, local_outcomes):
        import asyncio

        from repro.service import AsyncServiceClient

        config = ServerConfig(port=0, workers=0, inline_threads=2)
        with ServerThread(config) as thread:
            async def run():
                async with AsyncServiceClient(
                    port=thread.port, wire="binary", max_connections=4
                ) as client:
                    return await asyncio.gather(
                        *(client.submit(r.to_wire()) for r in requests)
                    )

            envelopes = asyncio.run(run())
        outcomes = [
            Outcome.from_envelope(envelope, key=request.key(), backend="remote")
            for request, envelope in zip(requests, envelopes)
        ]
        assert [o.key for o in outcomes] == [o.key for o in local_outcomes]
        assert [o.canonical() for o in outcomes] == [
            o.canonical() for o in local_outcomes
        ]

    def test_warm_hits_flow_json_to_binary(self, tmp_path, requests):
        root = tmp_path / "json-writes"
        config = ServerConfig(port=0, workers=0, inline_threads=2)
        with ServerThread(config, cache=ResultCache(root)) as thread:
            cold = RemoteBackend(port=thread.port, wire="json").run(requests)
            assert all(not o.cached for o in cold)
            computed_after_cold = thread.server.metrics.computed
            warm = RemoteBackend(port=thread.port, wire="binary").run(requests)
            assert thread.server.metrics.computed == computed_after_cold
        assert all(o.cached for o in warm)
        assert [o.canonical() for o in warm] == [o.canonical() for o in cold]

    def test_warm_hits_flow_binary_to_json(self, tmp_path, requests):
        root = tmp_path / "binary-writes"
        config = ServerConfig(port=0, workers=0, inline_threads=2)
        with ServerThread(config, cache=ResultCache(root)) as thread:
            cold = RemoteBackend(port=thread.port, wire="binary").run(requests)
            assert all(not o.cached for o in cold)
            computed_after_cold = thread.server.metrics.computed
            warm = RemoteBackend(port=thread.port, wire="json").run(requests)
            assert thread.server.metrics.computed == computed_after_cold
        assert all(o.cached for o in warm)
        assert [o.canonical() for o in warm] == [o.canonical() for o in cold]


class TestBinaryCacheProvenance:
    """Regression (PR 6): warm hits served over the binary path must
    record exactly the provenance the JSON path records — ``cached``,
    ``deduped``, ``backend`` and the wire status of error envelopes."""

    def test_warm_hit_provenance_is_encoding_independent(self, tmp_path, requests):
        subset = requests[:6]
        root = tmp_path / "prov-cache"
        config = ServerConfig(port=0, workers=0, inline_threads=2)
        with ServerThread(config, cache=ResultCache(root)) as thread:
            RemoteBackend(port=thread.port, wire="json").run(subset)
            warm_json = RemoteBackend(port=thread.port, wire="json").run(subset)
            warm_binary = RemoteBackend(port=thread.port, wire="binary").run(subset)
        for via_json, via_binary in zip(warm_json, warm_binary):
            assert via_json.cached is True
            assert via_binary.cached is True
            assert via_binary.deduped == via_json.deduped
            assert via_binary.backend == via_json.backend == "remote"
            assert via_binary.error_status == via_json.error_status
            assert via_binary.canonical() == via_json.canonical()

    def test_error_status_parity_across_encodings(self):
        infeasible = parse_request(
            {
                "kind": "solve",
                "tree": {"parents": [-1, 0, 0], "weights": [5, 7, 9]},
                "memory": 1,
                "algorithm": "RecExpand",
            }
        )
        config = ServerConfig(port=0, workers=0, inline_threads=2)
        with ServerThread(config) as thread:
            via_json = RemoteBackend(port=thread.port, wire="json").submit(infeasible)
            via_binary = RemoteBackend(
                port=thread.port, wire="binary"
            ).submit(infeasible)
        assert not via_json.ok and not via_binary.ok
        assert via_binary.error_code == via_json.error_code == "unsolvable"
        assert via_binary.error_status == via_json.error_status == 422
        assert via_binary.canonical() == via_json.canonical()


class TestEngineFieldIgnored:
    """The ``engine`` request field is parsed, validated and ignored.

    It stays on the wire until the 2.0 cut; every accepted value runs
    the same code, so it moves neither the key nor a byte of the
    envelope, over either encoding.
    """

    def _payload(self, **fields):
        payload = {
            "kind": "solve",
            "tree": {"parents": [-1, 0, 0, 1, 1], "weights": [3, 4, 2, 5, 1]},
            "memory": 9,
            "algorithm": "RecExpand",
        }
        payload.update(fields)
        return payload

    def test_accepted_names_give_one_key_and_one_envelope(self):
        import json

        from repro.service import ServiceClient

        keys = {parse_request(self._payload()).key()}
        envelopes = set()
        config = ServerConfig(port=0, workers=0, inline_threads=1)
        with ServerThread(config) as thread:
            for wire in ("json", "binary"):
                client = ServiceClient(port=thread.port, wire=wire)
                for engine in ("auto", "object", "array"):
                    payload = self._payload(engine=engine)
                    keys.add(parse_request(payload).key())
                    envelopes.add(json.dumps(client.submit(payload), sort_keys=True))
        assert len(keys) == 1
        assert len(envelopes) == 1
        assert json.loads(envelopes.pop())["key"] == keys.pop()

    def test_unknown_name_is_bad_field_on_both_encodings(self):
        from repro.service import ServiceClient, ServiceError

        with pytest.raises(ProtocolError) as err:
            parse_request(self._payload(engine="vector"))
        assert err.value.code == "bad_field"
        config = ServerConfig(port=0, workers=0, inline_threads=1)
        with ServerThread(config) as thread:
            for wire in ("json", "binary"):
                client = ServiceClient(port=thread.port, wire=wire)
                with pytest.raises(ServiceError) as failure:
                    client.submit(self._payload(engine="vector"))
                assert (failure.value.status, failure.value.code) == (400, "bad_field")
