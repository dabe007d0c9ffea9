"""Behavior tests for :class:`repro.service.aioclient.AsyncServiceClient`.

The pipelined client's contract, against real sockets throughout:

* many in-flight submissions complete **out of order** across the pool
  while every response still lands on the future that asked for it;
* connection reuse survives the server hanging up at its keep-alive
  horizon (and even a close-per-response server, via orderly-close
  resubmission that never spends the retry budget);
* cancelling a caller mid-flight leaves the pool consistent — the
  abandoned slot drains and later submissions keep working;
* ``429``/``504`` envelopes surface as :class:`ServiceError` with the
  taxonomy's codes and statuses, exactly like the sync client;
* ``wire="auto"`` falls back to JSON — stickily against a pre-frame
  server, per request for unframable payloads.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.datasets.instances import figure_2b
from repro.experiments.registry import ALGORITHMS, get_algorithm, register_algorithm
from repro.service import (
    AsyncServiceClient,
    ServerConfig,
    ServerThread,
    ServiceClient,
    ServiceError,
    parse_request,
)

TREE = figure_2b().tree
TREE_DICT = TREE.to_dict()


def _request(**overrides):
    base = {"kind": "solve", "tree": TREE_DICT, "memory": 6, "algorithm": "RecExpand"}
    base.update(overrides)
    return base


def _slow_strategy(tree, memory):
    time.sleep(0.3)
    return get_algorithm("OptMinMem")(tree, memory)


@pytest.fixture
def slow_algorithm():
    name = "TestSlowAsync"
    if name not in ALGORITHMS:
        register_algorithm(name, _slow_strategy)
    yield name
    ALGORITHMS.pop(name, None)


@pytest.fixture
def server():
    config = ServerConfig(port=0, workers=0, inline_threads=2)
    with ServerThread(config) as thread:
        yield thread


def _drive(coro):
    return asyncio.run(coro)


class TestPipelining:
    def test_gathered_submissions_all_match_their_requests(self, server):
        requests = [_request(memory=6 + i) for i in range(12)]
        want_keys = [parse_request(r).key() for r in requests]
        offline = {
            6 + i: get_algorithm("RecExpand")(TREE, 6 + i).io_volume
            for i in range(12)
        }

        async def run():
            async with AsyncServiceClient(
                port=server.port, max_connections=2
            ) as client:
                return await asyncio.gather(*(client.submit(r) for r in requests))

        envelopes = _drive(run())
        assert [e["key"] for e in envelopes] == want_keys
        assert [e["result"]["io_volume"] for e in envelopes] == [
            offline[6 + i] for i in range(12)
        ]

    def test_completions_arrive_out_of_submission_order(
        self, server, slow_algorithm
    ):
        slow = _request(algorithm=slow_algorithm)
        fast = _request(memory=7)

        async def run():
            order = []
            async with AsyncServiceClient(
                port=server.port, max_connections=2
            ) as client:
                async def tagged(tag, request):
                    envelope = await client.submit(request)
                    order.append(tag)
                    return envelope

                # the slow request is submitted FIRST but must finish
                # last; the stagger keeps the two out of one micro-batch
                # (a batch resolves all its futures together)
                slow_task = asyncio.ensure_future(tagged("slow", slow))
                await asyncio.sleep(0.1)
                results = await asyncio.gather(
                    slow_task, tagged("fast", fast)
                )
            return order, results

        order, results = _drive(run())
        assert order == ["fast", "slow"]
        assert all(e["ok"] for e in results)
        assert results[0]["key"] == parse_request(slow).key()
        assert results[1]["key"] == parse_request(fast).key()

    @pytest.mark.parametrize("wire", ["json", "binary"])
    def test_single_connection_pipelining_matches_fifo(self, tmp_path, wire):
        # one connection: responses must pair with requests purely by
        # FIFO order, over a burst that interleaves memo hits (answered
        # as they arrive) with misses (answered by the workers)
        config = ServerConfig(
            port=0, workers=0, inline_threads=2, cache_dir=str(tmp_path / "cache")
        )
        requests = [_request(memory=6 + i) for i in range(16)]
        warm = requests[::2]
        want = [parse_request(r).key() for r in requests]

        async def run(port):
            async with AsyncServiceClient(
                port=port, max_connections=1, wire=wire
            ) as client:
                await asyncio.gather(*(client.submit(r) for r in warm))
                envelopes = await asyncio.gather(
                    *(client.submit(r) for r in requests)
                )
                assert len(client._conns) <= 1
                return envelopes

        with ServerThread(config) as thread:
            envelopes = _drive(run(thread.port))
        assert [e["key"] for e in envelopes] == want
        assert [e["cached"] for e in envelopes] == [i % 2 == 0 for i in range(16)]


class TestConnectionLifecycles:
    def test_reuse_survives_server_keepalive_close(self):
        config = ServerConfig(
            port=0, workers=0, inline_threads=2, keepalive_timeout=0.3
        )
        with ServerThread(config) as thread:
            async def run():
                async with AsyncServiceClient(port=thread.port) as client:
                    first = await client.submit(_request())
                    # outlive the server's keep-alive horizon: the pooled
                    # connection is closed server-side under the client
                    await asyncio.sleep(0.8)
                    second = await client.submit(_request(memory=7))
                    return first, second

            first, second = _drive(run())
        assert first["ok"] and second["ok"]
        assert first["key"] != second["key"]

    def test_burst_against_a_close_per_response_server(self):
        # keepalive_timeout <= 0 restores close-after-every-response; a
        # pipelined burst must still complete via orderly-close recovery
        config = ServerConfig(
            port=0, workers=0, inline_threads=2, keepalive_timeout=0.0
        )
        requests = [_request(memory=6 + i) for i in range(10)]
        want = [parse_request(r).key() for r in requests]
        with ServerThread(config) as thread:
            async def run():
                async with AsyncServiceClient(
                    port=thread.port, max_connections=2
                ) as client:
                    return await asyncio.gather(
                        *(client.submit(r) for r in requests)
                    )

            envelopes = _drive(run())
        assert [e["key"] for e in envelopes] == want

    def test_cancellation_mid_flight_leaves_the_pool_consistent(
        self, server, slow_algorithm
    ):
        async def run():
            async with AsyncServiceClient(
                port=server.port, max_connections=1
            ) as client:
                victim = asyncio.ensure_future(
                    client.submit(_request(algorithm=slow_algorithm))
                )
                chaser = asyncio.ensure_future(client.submit(_request(memory=8)))
                await asyncio.sleep(0.05)  # both pipelined and in flight
                victim.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await victim
                # the cancelled slot must drain without desyncing FIFO
                # matching: the chaser and every later submission still
                # get *their* responses
                first = await chaser
                later = await asyncio.gather(
                    *(client.submit(_request(memory=9 + i)) for i in range(4))
                )
                assert len(client._conns) <= 1
                return first, later

        first, later = _drive(run())
        assert first["key"] == parse_request(_request(memory=8)).key()
        assert [e["key"] for e in later] == [
            parse_request(_request(memory=9 + i)).key() for i in range(4)
        ]

    def test_submitting_after_close_raises_transport(self, server):
        async def run():
            client = AsyncServiceClient(port=server.port)
            assert (await client.health())["ok"]
            await client.close()
            with pytest.raises(ServiceError) as err:
                await client.submit(_request())
            return err.value

        error = _drive(run())
        assert error.code == "transport"


class TestErrorTaxonomy:
    def test_queue_full_surfaces_as_429(self, tmp_path, slow_algorithm):
        config = ServerConfig(
            port=0, workers=0, inline_threads=1, queue_limit=1, max_batch=1,
        )
        with ServerThread(config) as thread:
            async def run():
                async with AsyncServiceClient(port=thread.port) as client:
                    return await asyncio.gather(
                        *(
                            client.submit(
                                _request(algorithm=slow_algorithm, memory=6 + i)
                            )
                            for i in range(6)
                        ),
                        return_exceptions=True,
                    )

            results = _drive(run())
        succeeded = [r for r in results if isinstance(r, dict)]
        rejected = [r for r in results if isinstance(r, ServiceError)]
        assert succeeded, "the service must keep serving under overload"
        assert rejected, "a full queue must reject, not buffer unboundedly"
        assert all(e.code == "queue_full" and e.status == 429 for e in rejected)

    def test_deadline_surfaces_as_504(self, server, slow_algorithm):
        async def run():
            async with AsyncServiceClient(port=server.port) as client:
                with pytest.raises(ServiceError) as err:
                    await client.submit(
                        _request(algorithm=slow_algorithm, timeout=0.05)
                    )
                return err.value

        error = _drive(run())
        assert error.code == "timeout"
        assert error.status == 504

    def test_validation_errors_keep_their_codes(self, server):
        async def run():
            async with AsyncServiceClient(port=server.port) as client:
                with pytest.raises(ServiceError) as err:
                    await client.submit(_request(algorithm="Nope"))
                return err.value

        error = _drive(run())
        assert error.code == "unknown_algorithm"
        assert error.status == 400


# --------------------------------------------------------------------- #
# wire negotiation fallbacks (old servers, unframable requests)
# --------------------------------------------------------------------- #


class _OldServerHandler(BaseHTTPRequestHandler):
    """A pre-frame server: ignores Content-Type and tries JSON on everything."""

    protocol_version = "HTTP/1.1"
    frames_seen = 0

    def do_POST(self):  # noqa: N802 - BaseHTTPRequestHandler API
        length = int(self.headers.get("Content-Length", "0"))
        body = self.rfile.read(length)
        try:
            json.loads(body)
        except ValueError:
            if body.startswith(b"RIOW"):
                type(self).frames_seen += 1
            status, envelope = 400, {
                "ok": False,
                "error": {"code": "bad_json",
                          "message": "request body is not valid JSON"},
            }
        else:
            status, envelope = 200, {
                "ok": True, "key": "old", "cached": False, "deduped": False,
                "result": {"io_volume": 0},
            }
        payload = json.dumps(envelope).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):  # quiet
        pass


@pytest.fixture
def old_server():
    _OldServerHandler.frames_seen = 0
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _OldServerHandler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd.server_address[1]
    finally:
        httpd.shutdown()
        httpd.server_close()


class TestWireFallback:
    def test_async_auto_falls_back_stickily_on_an_old_server(self, old_server):
        async def run():
            async with AsyncServiceClient(port=old_server, wire="auto") as client:
                first = await client.submit(_request())
                second = await client.submit(_request(memory=7))
                assert not client._wire_ok  # sticky: later submits skip frames
                return first, second

        first, second = _drive(run())
        assert first["ok"] and second["ok"]
        # exactly one frame probe: the fallback is sticky, not per request
        assert _OldServerHandler.frames_seen == 1

    def test_sync_auto_falls_back_stickily_on_an_old_server(self, old_server):
        client = ServiceClient(port=old_server, wire="auto")
        assert client.submit(_request())["ok"]
        assert client.submit(_request(memory=7))["ok"]
        assert not client._wire_ok
        assert _OldServerHandler.frames_seen == 1

    def test_binary_mode_surfaces_the_old_server_error(self, old_server):
        client = ServiceClient(port=old_server, wire="binary")
        with pytest.raises(ServiceError) as err:
            client.submit(_request())
        assert err.value.code == "bad_json"

    def test_unframable_request_falls_back_per_request(self, server):
        # beyond-int64 weights cannot ride a frame; auto mode must ship
        # them as JSON and come back with the same outcome JSON gets
        request = {
            "kind": "solve",
            "tree": {"parents": [-1], "weights": [2**70]},
            "memory": 10,
        }

        async def run():
            async with AsyncServiceClient(port=server.port, wire="auto") as client:
                with pytest.raises(ServiceError) as err:
                    await client.submit(request)
                assert client._wire_ok  # per-request fallback, not sticky
                return err.value

        async_error = _drive(run())
        with pytest.raises(ServiceError) as sync_err:
            ServiceClient(port=server.port, wire="json").submit(request)
        assert async_error.code == sync_err.value.code
        assert async_error.status == sync_err.value.status
