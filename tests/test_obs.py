"""Tests for the observability layer (repro.obs) and its service wiring.

Covers the metric primitives (histogram edge cases, concurrent
observe-vs-scrape), span tracing, the schedule-trace/replay peak
identity, and the server-side surface: Prometheus negotiation on
``/metrics``, version info on ``/healthz``, the dashboard routes, and
the traced round trip whose envelope carries the stage breakdown.
"""

from __future__ import annotations

import asyncio
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.analysis.bounds import memory_bounds
from repro.core.trace import replay, traversal_trace
from repro.core.tree import TaskTree
from repro.core.traversal import validate
from repro.datasets.instances import figure_2b
from repro.datasets.synth import synth_instance
from repro.experiments.registry import get_algorithm
from repro.obs import (
    Histogram,
    MetricsRegistry,
    current_trace_id,
    new_trace_id,
    schedule_trace,
    span,
    trace_context,
)
from repro.service import ServerConfig, ServerThread, ServiceClient

TREE = figure_2b().tree
TREE_DICT = TREE.to_dict()


# --------------------------------------------------------------------- #
# metric primitives
# --------------------------------------------------------------------- #


class TestCounter:
    def test_labels_return_cached_children(self):
        registry = MetricsRegistry()
        counter = registry.counter("things_total", "things")
        a = counter.labels(kind="a")
        assert counter.labels(kind="a") is a
        a.inc()
        a.inc(2)
        counter.labels(kind="b").inc()
        assert counter.value == 4
        assert counter.child_values() == {"a": 3, "b": 1}

    def test_kind_mismatch_is_a_type_error(self):
        registry = MetricsRegistry()
        registry.counter("x", "")
        with pytest.raises(TypeError):
            registry.gauge("x", "")

    def test_gauge_callback_is_read_at_scrape_time(self):
        registry = MetricsRegistry()
        depth = [0]
        registry.gauge("depth", "").set_function(lambda: depth[0])
        depth[0] = 7
        assert registry.snapshot()["depth"] == 7

    def test_crashed_gauge_callback_is_counted_and_logged_once(self, caplog):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth", "")
        gauge.set(3)

        def boom():
            raise RuntimeError("backend gone")

        gauge.set_function(boom)
        with caplog.at_level("ERROR", logger="repro.obs.metrics"):
            snap = registry.snapshot()
            registry.snapshot()
        # falls back to the last set value, never a silent 0
        assert snap["depth"] == 3
        assert snap["gauge_scrape_errors_total"] == 1
        assert registry.snapshot()["gauge_scrape_errors_total"] == 3
        # logged once per gauge, not once per scrape
        logged = [r for r in caplog.records if "depth" in r.message]
        assert len(logged) == 1
        text = registry.render_prometheus()
        assert 'gauge_scrape_errors_total{gauge="depth"}' in text

    def test_healthy_scrapes_report_no_error_series(self):
        registry = MetricsRegistry()
        registry.gauge("depth", "").set_function(lambda: 4)
        snap = registry.snapshot()
        assert snap["depth"] == 4
        assert "gauge_scrape_errors_total" not in snap
        assert "gauge_scrape_errors_total" not in registry.render_prometheus()

    def test_uptime_is_monotonic_anchored(self, monkeypatch):
        import time as time_mod

        registry = MetricsRegistry()
        up = registry.uptime()
        assert up >= 0.0
        # a wall-clock step must not affect uptime
        monkeypatch.setattr(
            time_mod, "time", lambda: registry.started_at - 3600.0
        )
        assert registry.uptime() >= up


class TestHistogramEdgeCases:
    def test_empty_window(self):
        h = Histogram("lat", window=8)
        assert h.summary() == {
            "count": 0, "p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0,
        }
        assert h.window_values() == []
        assert h.total_count == 0

    def test_single_sample(self):
        h = Histogram("lat", window=8)
        h.observe(0.25)
        s = h.summary(scale=1000.0)
        assert s == {
            "count": 1, "p50": 250.0, "p90": 250.0, "p99": 250.0, "max": 250.0,
        }

    def test_window_wraparound_keeps_most_recent(self):
        h = Histogram("lat", window=4)
        for v in range(10):  # 0..9; window must hold 6,7,8,9
            h.observe(float(v))
        assert h.window_values() == [6.0, 7.0, 8.0, 9.0]
        assert h.total_count == 10
        assert h.total_sum == sum(range(10))
        assert h.summary()["count"] == 4
        assert h.summary()["max"] == 9.0

    def test_percentile_formula_is_the_legacy_one(self):
        # sorted[min(len - 1, int(q * len))] — pinned bit for bit
        values = [float(v) for v in range(10)]
        assert Histogram.percentile(values, 0.50) == 5.0
        assert Histogram.percentile(values, 0.90) == 9.0
        assert Histogram.percentile(values, 0.99) == 9.0
        assert Histogram.percentile([], 0.5) == 0.0

    def test_concurrent_observe_vs_thread_scrapes(self):
        # an asyncio loop records latencies while a foreign thread
        # scrapes summaries: no exception, every summary self-consistent
        h = Histogram("lat", window=64)
        stop = threading.Event()
        failures: list[str] = []

        def scraper():
            while not stop.is_set():
                s = h.summary()
                if not (s["p50"] <= s["p90"] <= s["p99"] <= s["max"]) and s["count"]:
                    failures.append(f"inconsistent summary: {s}")

        thread = threading.Thread(target=scraper)
        thread.start()

        async def burst():
            for i in range(2000):
                h.observe(float(i % 97))
                if i % 256 == 0:
                    await asyncio.sleep(0)

        try:
            asyncio.run(burst())
        finally:
            stop.set()
            thread.join()
        assert not failures
        assert h.total_count == 2000


class TestPrometheusRendering:
    def test_text_exposition_has_series_and_summaries(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "requests")
        counter.labels(encoding="json").inc(3)
        registry.gauge("queue_depth", "depth").set(2)
        registry.histogram("solve_seconds", "latency").observe(0.5)
        text = registry.render_prometheus()
        assert "# TYPE requests_total counter" in text
        assert 'requests_total{encoding="json"} 3' in text
        assert "queue_depth 2" in text
        assert 'solve_seconds{quantile="0.5"} 0.5' in text
        assert "solve_seconds_count 1" in text


# --------------------------------------------------------------------- #
# span tracing
# --------------------------------------------------------------------- #


class TestSpans:
    def test_span_without_trace_is_a_noop(self):
        assert current_trace_id() is None
        with span("solve") as trace:
            assert trace is None

    def test_spans_accumulate_into_the_active_trace(self):
        with trace_context("abc123") as trace:
            assert current_trace_id() == "abc123"
            with span("solve"):
                pass
            with span("solve"):
                pass
            with span("encode"):
                pass
        assert current_trace_id() is None
        assert set(trace.stages) == {"solve", "encode"}
        assert trace.stages["solve"] >= 0.0

    def test_new_trace_ids_are_distinct_hex(self):
        a, b = new_trace_id(), new_trace_id()
        assert a != b
        assert len(a) == 16
        int(a, 16)  # must be hex


# --------------------------------------------------------------------- #
# schedule traces
# --------------------------------------------------------------------- #


def _solved(tree: TaskTree, memory: int, algorithm: str = "PostOrderMinIO"):
    traversal = get_algorithm(algorithm)(tree, memory)
    validate(tree, traversal, memory)
    return traversal


class TestScheduleTrace:
    @pytest.mark.parametrize("algorithm", ["PostOrderMinIO", "RecExpand"])
    def test_peak_matches_replay_exactly(self, algorithm):
        # the acceptance identity: curve max == the independent replay's
        # peak, across synthetic instances that actually do I/O
        checked = 0
        for seed in range(30):
            tree = synth_instance(40, seed=seed)
            bounds = memory_bounds(tree)
            if not bounds.has_io_regime:
                continue
            memory = bounds.mid
            traversal = _solved(tree, memory, algorithm)
            trace = schedule_trace(
                tree.parents, tree.weights, traversal.schedule, traversal.io
            )
            result = replay(tree, traversal_trace(tree, traversal), memory)
            assert trace["peak_memory"] == result.peak_memory
            assert trace["peak_memory"] == max(trace["memory"])
            assert trace["io_volume"] == result.io_volume
            assert trace["cumulative_io"][-1] == traversal.io_volume
            checked += 1
        assert checked >= 5  # the sweep must actually exercise I/O

    def test_trace_shape_is_consistent(self):
        traversal = _solved(TREE, 6)
        trace = schedule_trace(
            TREE.parents, TREE.weights, traversal.schedule, traversal.io
        )
        n_events = len(trace["nodes"])
        assert len(trace["kinds"]) == n_events
        assert len(trace["memory"]) == n_events
        assert len(trace["cumulative_io"]) == n_events
        assert set(trace["kinds"]) <= {"r", "x", "w"}
        assert trace["kinds"].count("x") == TREE.n
        assert trace["version"] == 1

    def test_empty_schedule(self):
        trace = schedule_trace([], [], [], [])
        assert trace["peak_memory"] == 0
        assert trace["memory"] == []


# --------------------------------------------------------------------- #
# the service surface
# --------------------------------------------------------------------- #


@pytest.fixture(scope="class")
def dash_server(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("obs-cache")
    config = ServerConfig(
        port=0, workers=0, dashboard=True, cache_dir=str(cache_dir)
    )
    with ServerThread(config) as srv:
        client = ServiceClient(port=srv.port)
        assert client.wait_ready()
        yield srv, client


def _get(port: int, path: str, accept: str | None = None) -> tuple[int, str, bytes]:
    request = urllib.request.Request(f"http://127.0.0.1:{port}{path}")
    if accept:
        request.add_header("Accept", accept)
    try:
        with urllib.request.urlopen(request) as response:
            return (
                response.status,
                response.headers.get("Content-Type", ""),
                response.read(),
            )
    except urllib.error.HTTPError as err:
        return err.code, err.headers.get("Content-Type", ""), err.read()


class TestServiceObservability:
    def test_healthz_reports_versions(self, dash_server):
        _, client = dash_server
        info = client.health()
        assert info["ok"] is True
        versions = info["versions"]
        assert set(versions) == {"repro", "protocol", "wire", "engine"}
        import repro

        assert versions["repro"] == repro.__version__

    def test_metrics_negotiates_prometheus_text(self, dash_server):
        srv, client = dash_server
        client.solve(TREE_DICT, 6, algorithm="PostOrderMinIO")
        # default: the legacy JSON shape, with the new sub-keys
        metrics = client.metrics()
        assert metrics["requests"]["received"] >= 1
        assert {"json", "binary"} == set(metrics["requests"]["by_encoding"])
        assert "by_strategy" in metrics["requests"]
        assert {"hits", "misses", "memo_hits", "disk_hits"} <= set(
            metrics["cache"]
        )
        assert {"rx", "tx"} == set(metrics["wire_bytes"])
        assert {"count", "p50", "p90", "p99", "max"} == set(
            metrics["latency_ms"]
        )
        # Accept: text/plain → Prometheus exposition
        status, content_type, raw = _get(srv.port, "/metrics", "text/plain")
        assert status == 200
        assert content_type.startswith("text/plain")
        text = raw.decode()
        assert "# TYPE requests_total counter" in text
        assert "queue_depth" in text
        assert "solve_seconds_count" in text

    def test_traced_submit_carries_stage_breakdown(self, dash_server):
        _, client = dash_server
        envelope = client.submit({
            "kind": "solve",
            "tree": TREE_DICT,
            "memory": 6,
            "algorithm": "RecExpand",
            "trace": new_trace_id(),
            "trace_schedule": True,
        })
        assert envelope["ok"] is True
        timings = envelope["timings"]
        assert {"decode", "cache", "queue", "solve", "encode"} <= set(timings)
        assert all(v >= 0.0 for v in timings.values())
        result = envelope["result"]
        trace = result["schedule_trace"]
        assert result["peak_memory"] == trace["peak_memory"]
        assert trace["peak_memory"] == max(trace["memory"])

    def test_trace_schedule_peak_matches_solver_replay(self, dash_server):
        _, client = dash_server
        traversal = _solved(TREE, 6, "RecExpand")
        expected = replay(TREE, traversal_trace(TREE, traversal), 6)
        envelope = client.submit({
            "kind": "solve", "tree": TREE_DICT, "memory": 6,
            "algorithm": "RecExpand", "trace_schedule": True,
        })
        result = envelope["result"]
        assert result["peak_memory"] == expected.peak_memory
        assert result["schedule_trace"]["io_volume"] == expected.io_volume

    def test_trace_schedule_key_differs_from_plain(self):
        from repro.api import parse_request

        plain = parse_request({
            "kind": "solve", "tree": TREE_DICT, "memory": 6,
            "algorithm": "RecExpand",
        })
        traced = parse_request({
            "kind": "solve", "tree": TREE_DICT, "memory": 6,
            "algorithm": "RecExpand", "trace_schedule": True,
        })
        with_id = parse_request({
            "kind": "solve", "tree": TREE_DICT, "memory": 6,
            "algorithm": "RecExpand", "trace": "abc",
        })
        # the flag changes the result payload, so it must change the key;
        # a trace id is delivery policy and must NOT change the key
        assert plain.key() != traced.key()
        assert plain.key() == with_id.key()

    def test_untraced_envelope_has_no_timings(self, dash_server):
        _, client = dash_server
        envelope = client.submit({
            "kind": "solve", "tree": TREE_DICT, "memory": 6,
            "algorithm": "PostOrderMinIO",
        })
        assert envelope["ok"] is True
        assert "timings" not in envelope

    def test_dashboard_page_and_data(self, dash_server):
        srv, client = dash_server
        client.solve(TREE_DICT, 6, algorithm="PostOrderMinIO")
        status, content_type, raw = _get(srv.port, "/dash")
        assert status == 200
        assert content_type.startswith("text/html")
        assert b"repro-ioschedule" in raw
        status, _, raw = _get(srv.port, "/dash/data")
        assert status == 200
        data = json.loads(raw)
        assert data["metrics"]["requests"]["received"] >= 1
        assert data["recent"], "recent-request ring must be populated"
        entry = data["recent"][-1]
        assert {"key", "kind", "algorithm", "cached", "elapsed_ms"} <= set(entry)

    def test_dashboard_trace_drilldown_svg(self, dash_server):
        srv, client = dash_server
        envelope = client.submit({
            "kind": "solve", "tree": TREE_DICT, "memory": 6,
            "algorithm": "RecExpand", "trace_schedule": True,
        })
        status, content_type, raw = _get(
            srv.port, f"/dash/trace/{envelope['key']}"
        )
        assert status == 200
        assert content_type.startswith("image/svg+xml")
        assert b"<svg" in raw
        # a key without a schedule trace is a clean 404
        status, _, _ = _get(srv.port, "/dash/trace/" + "0" * 64)
        assert status == 404

    def test_dashboard_trace_reads_disk_without_counting(self, dash_server):
        srv, client = dash_server
        envelope = client.submit({
            "kind": "solve", "tree": TREE_DICT, "memory": 7,
            "algorithm": "RecExpand", "trace_schedule": True,
        })
        server = srv.server
        server._memo.clear()  # the entry is on disk only
        before = (server.cache.stats(), server._metrics_body()["cache"])
        status, content_type, raw = _get(
            srv.port, f"/dash/trace/{envelope['key']}"
        )
        assert status == 200
        assert content_type.startswith("image/svg+xml") and b"<svg" in raw
        assert (server.cache.stats(), server._metrics_body()["cache"]) == before

    def test_dashboard_off_by_default(self):
        with ServerThread(ServerConfig(port=0, workers=0)) as srv:
            client = ServiceClient(port=srv.port)
            assert client.wait_ready()
            status, _, _ = _get(srv.port, "/dash")
            assert status == 404

    def test_observability_off_is_a_noop(self):
        config = ServerConfig(port=0, workers=0, observability=False)
        with ServerThread(config) as srv:
            client = ServiceClient(port=srv.port)
            assert client.wait_ready()
            client.solve(TREE_DICT, 6, algorithm="PostOrderMinIO")
            metrics = client.metrics()
            assert metrics["requests"]["received"] == 0
            assert metrics["latency_ms"]["count"] == 0

    def test_client_injects_ambient_trace_id(self, dash_server):
        _, client = dash_server
        with trace_context("ambient-id-42"):
            envelope = client.submit({
                "kind": "solve", "tree": TREE_DICT, "memory": 6,
                "algorithm": "RecExpand",
            })
        assert envelope["ok"] is True
        assert "timings" in envelope


class TestWorkerPoolCounters:
    def test_pool_batches_count_into_registry(self):
        import asyncio as _asyncio

        from repro.api import parse_request
        from repro.service.pool import WorkerPool

        registry = MetricsRegistry()
        pool = WorkerPool(0, registry=registry)
        try:
            request = parse_request({
                "kind": "solve", "tree": TREE_DICT, "memory": 6,
                "algorithm": "PostOrderMinIO",
            })
            envelopes = _asyncio.run(pool.run_batch([request]))
            assert envelopes[0]["ok"] is True
        finally:
            pool.shutdown()
        assert registry.counter("pool_batches_total").value == 1


class TestBackendCounters:
    def test_local_backend_counts_requests(self):
        from repro.api import LocalBackend, parse_request

        registry = MetricsRegistry()
        backend = LocalBackend(registry=registry)
        request = parse_request({
            "kind": "solve", "tree": TREE_DICT, "memory": 6,
            "algorithm": "PostOrderMinIO",
        })
        outcome = backend.submit(request)
        assert outcome.ok
        counted = registry.counter("requests_total").child_values()
        assert counted == {"local": 1}
