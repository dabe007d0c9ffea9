"""Service layer: request throughput and latency, cold cache vs warm.

What must hold:

* under 16 concurrent clients the service drops **zero** well-formed
  requests (no ``queue_full`` rejections at the default queue limit);
* served results match the offline solver exactly (spot-checked per
  request set);
* a warm-cache repeat of the same request set achieves measurably
  higher throughput than the cold run — the whole point of
  content-addressed dedup is that repeated traffic never reaches a
  worker.

Levels: 1, 4 and 16 concurrent clients, each with its own disjoint
request set (so every level starts cold), then the same set replayed
warm.  ``REPRO_JOBS`` sets the worker-process count (default 2).
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import threading
import time
from pathlib import Path

from repro.analysis.bounds import memory_bounds
from repro.datasets.store import ResultCache
from repro.datasets.synth import synth_instance
from repro.experiments.registry import get_algorithm
from repro.core.tree import TaskTree
from repro.service import (
    AsyncServiceClient,
    ServerConfig,
    ServerThread,
    ServiceClient,
)

CLIENT_LEVELS = (1, 4, 16)
REQUESTS_PER_LEVEL = 48
TREE_NODES = 240


def _request_set(level: int) -> list[dict]:
    """A disjoint, deterministic set of solve requests for one level."""
    requests: list[dict] = []
    seed = 10_000 * level
    while len(requests) < REQUESTS_PER_LEVEL:
        tree = synth_instance(TREE_NODES, seed=seed)
        seed += 1
        bounds = memory_bounds(tree)
        if not bounds.has_io_regime:
            continue
        requests.append(
            {
                "kind": "solve",
                "tree": tree.to_dict(),
                "memory": bounds.mid,
                "algorithm": "RecExpand",
            }
        )
    return requests


def _drive(port: int, clients: int, requests: list[dict], wire: str = "auto"):
    """Fan the request set over ``clients`` threads; collect latencies."""
    chunks = [requests[i::clients] for i in range(clients)]
    latencies: list[float] = []
    errors: list[Exception] = []
    lock = threading.Lock()

    def worker(chunk: list[dict]) -> None:
        client = ServiceClient(port=port, timeout=120.0, wire=wire)
        for request in chunk:
            t0 = time.perf_counter()
            try:
                client.submit(request)
            except Exception as exc:  # dropped request — the assertion catches it
                with lock:
                    errors.append(exc)
                continue
            with lock:
                latencies.append(time.perf_counter() - t0)

    threads = [threading.Thread(target=worker, args=(c,)) for c in chunks]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    return elapsed, latencies, errors


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def test_service_throughput_and_latency(tmp_path, batch_jobs, emit):
    cache = ResultCache(tmp_path / "cache")
    config = ServerConfig(port=0, workers=batch_jobs, queue_limit=64)
    lines = [
        f"workers={batch_jobs} requests/level={REQUESTS_PER_LEVEL} "
        f"tree_nodes={TREE_NODES}",
        f"{'clients':>7} {'phase':>5} {'elapsed':>9} {'req/s':>8} "
        f"{'p50 ms':>8} {'p99 ms':>8}",
    ]
    with ServerThread(config, cache=cache) as server:
        server.server.pool.warm_up()
        client = ServiceClient(port=server.port)
        assert client.wait_ready(30)

        gains = {}
        for clients in CLIENT_LEVELS:
            requests = _request_set(clients)
            results = {}
            for phase in ("cold", "warm"):
                elapsed, latencies, errors = _drive(server.port, clients, requests)
                assert not errors, (
                    f"{clients} clients ({phase}): dropped "
                    f"{len(errors)} well-formed requests: {errors[:3]}"
                )
                assert len(latencies) == len(requests)
                results[phase] = (elapsed, latencies)
                lines.append(
                    f"{clients:>7} {phase:>5} {elapsed:>8.2f}s "
                    f"{len(requests) / elapsed:>8.1f} "
                    f"{_percentile(latencies, 0.50) * 1e3:>8.1f} "
                    f"{_percentile(latencies, 0.99) * 1e3:>8.1f}"
                )
            gains[clients] = results["cold"][0] / results["warm"][0]
            lines.append(f"{'':>7} warm/cold throughput gain: {gains[clients]:.2f}x")

            # served == offline, spot check one request of the set
            probe = requests[0]
            served = client.submit(probe)["result"]
            offline = get_algorithm(probe["algorithm"])(
                TaskTree(probe["tree"]["parents"], probe["tree"]["weights"]),
                probe["memory"],
            )
            assert served["io_volume"] == offline.io_volume
            assert served["schedule"] == list(offline.schedule)

        metrics = client.metrics()
        assert metrics["requests"]["rejected"] == 0
        lines.append(
            f"totals: computed={metrics['requests']['computed']} "
            f"cache_hits={metrics['cache']['hits']} rejected=0"
        )

    # the headline claim: repeated traffic is measurably faster from cache
    assert gains[max(CLIENT_LEVELS)] > 1.1, (
        f"warm-cache replay should beat cold compute, got {gains}"
    )
    emit("service_throughput", "\n".join(lines))


# --------------------------------------------------------------------- #
# large-batch burst: 1k small trees through the shared-memory transport
# --------------------------------------------------------------------- #

BURST_TREES = 1_000
BURST_NODES = 512
BURST_CLIENTS = 32


def _burst_requests() -> list[dict]:
    """1 000 distinct small solve requests (the many-small-trees shape)."""
    requests: list[dict] = []
    seed = 500_000
    while len(requests) < BURST_TREES:
        tree = synth_instance(BURST_NODES, seed=seed)
        seed += 1
        bounds = memory_bounds(tree)
        if not bounds.has_io_regime:
            continue
        requests.append(
            {
                "kind": "solve",
                "tree": tree.to_dict(),
                "memory": bounds.mid,
                "algorithm": "PostOrderMinIO",
            }
        )
    return requests


def test_large_batch_burst_over_shared_memory(batch_jobs, emit):
    """1k-tree submit bursts: the forest transport vs pickled payloads.

    What must hold: with large micro-batches and {BURST_CLIENTS}
    concurrent clients the service drops **zero** requests on either
    transport, both transports return identical results, and the
    shared-memory path's envelopes match the offline solver exactly.
    Throughput of both transports is reported side by side.
    """
    requests = _burst_requests()
    probe = requests[0]
    offline = get_algorithm(probe["algorithm"])(
        TaskTree(probe["tree"]["parents"], probe["tree"]["weights"]),
        probe["memory"],
    )
    lines = [
        f"workers={batch_jobs} clients={BURST_CLIENTS} "
        f"requests={BURST_TREES} tree_nodes={BURST_NODES} max_batch=64",
        f"{'transport':>10} {'elapsed':>9} {'trees/s':>9} "
        f"{'p50 ms':>8} {'p99 ms':>8}",
    ]
    throughput = {}
    for transport in ("shm", "pickle"):
        config = ServerConfig(
            port=0,
            workers=batch_jobs,
            queue_limit=max(64, 4 * BURST_CLIENTS),
            max_batch=64,
            shm_transport=(transport == "shm"),
            shm_min_nodes=0,  # every batch rides the segment in shm mode
        )
        with ServerThread(config) as server:
            assert server.server.pool.shm_transport == (transport == "shm")
            server.server.pool.warm_up()
            client = ServiceClient(port=server.port)
            assert client.wait_ready(30)
            elapsed, latencies, errors = _drive(
                server.port, BURST_CLIENTS, requests
            )
            assert not errors, (
                f"{transport}: dropped {len(errors)} of {BURST_TREES} "
                f"burst requests: {errors[:3]}"
            )
            assert len(latencies) == BURST_TREES
            served = client.submit(probe)["result"]
            assert served["io_volume"] == offline.io_volume
            assert served["schedule"] == list(offline.schedule)
            metrics = client.metrics()
            assert metrics["requests"]["rejected"] == 0
            if transport == "shm":
                assert server.server.pool.shm_batches > 0
            throughput[transport] = BURST_TREES / elapsed
            lines.append(
                f"{transport:>10} {elapsed:>8.2f}s {BURST_TREES / elapsed:>9,.0f} "
                f"{_percentile(latencies, 0.50) * 1e3:>8.1f} "
                f"{_percentile(latencies, 0.99) * 1e3:>8.1f}"
            )
    lines.append(
        f"shm/pickle throughput ratio: "
        f"{throughput['shm'] / throughput['pickle']:.2f}x"
    )
    emit("service_large_batch", "\n".join(lines))


# --------------------------------------------------------------------- #
# binary wire + pipelined async client vs the JSON/sync path
# --------------------------------------------------------------------- #

BINARY_SPEEDUP_MIN = float(os.environ.get("BINARY_SPEEDUP_MIN", "3.0"))


def _drive_async(port: int, clients: int, requests: list[dict], wire: str):
    """The async analog of :func:`_drive`: ``clients`` logical clients
    sharing one pipelined :class:`AsyncServiceClient` pool."""
    results: list[dict | None] = [None] * len(requests)
    latencies: list[float] = []
    errors: list[Exception] = []

    async def run() -> float:
        async with AsyncServiceClient(
            port=port, timeout=120.0, wire=wire
        ) as client:

            async def worker(indices: list[int]) -> None:
                for i in indices:
                    t0 = time.perf_counter()
                    try:
                        results[i] = await client.submit(requests[i])
                    except Exception as exc:
                        errors.append(exc)
                        continue
                    latencies.append(time.perf_counter() - t0)

            chunks = [
                list(range(c, len(requests), clients)) for c in range(clients)
            ]
            t0 = time.perf_counter()
            await asyncio.gather(*(worker(c) for c in chunks))
            return time.perf_counter() - t0

    elapsed = asyncio.run(run())
    return elapsed, latencies, errors, results


def test_binary_async_burst_vs_json(tmp_path, batch_jobs, emit):
    """The tentpole claim: frames + pipelining beat JSON + thread-per-client.

    One cold pass computes the {BURST_TREES}-request burst and fills the
    result cache; the gated comparison then replays the burst warm on
    both paths — {BURST_CLIENTS} sync clients posting JSON (one
    connection per request, JSON parse on the event loop: the pre-frame
    path byte-for-byte), against {BURST_CLIENTS} logical async clients
    posting binary frames over a pipelined keep-alive pool.  Warm
    replay makes every request a cache hit, so both measurements are
    pure wire path — transport, framing, parse — which is exactly what
    the binary protocol replaces.  What must hold: zero drops on either
    path, served results identical to the offline solver, every binary
    request counted by the ``requests.wire`` metric, and the
    binary+async path at least ``BINARY_SPEEDUP_MIN``x the JSON path's
    trees/s.
    """
    requests = _burst_requests()
    probe = requests[0]
    offline = get_algorithm(probe["algorithm"])(
        TaskTree(probe["tree"]["parents"], probe["tree"]["weights"]),
        probe["memory"],
    )
    cache = ResultCache(tmp_path / "cache")
    config = ServerConfig(
        port=0,
        workers=batch_jobs,
        queue_limit=max(64, 4 * BURST_CLIENTS),
        max_batch=64,
        shm_min_nodes=0,
    )
    lines = [
        f"workers={batch_jobs} clients={BURST_CLIENTS} "
        f"requests={BURST_TREES} tree_nodes={BURST_NODES} "
        f"gate={BINARY_SPEEDUP_MIN:.1f}x",
        f"{'path':>12} {'elapsed':>9} {'trees/s':>9} "
        f"{'p50 ms':>8} {'p99 ms':>8}",
    ]
    stats: dict[str, dict] = {}
    with ServerThread(config, cache=cache) as server:
        server.server.pool.warm_up()
        client = ServiceClient(port=server.port)
        assert client.wait_ready(30)

        # cold pass with the default client (binary frames): compute
        # everything once and fill the cache — the service's normal
        # traffic, unmeasured for the gate since compute cost is
        # identical on both paths
        elapsed, latencies, errors = _drive(server.port, BURST_CLIENTS, requests)
        assert not errors, f"cold pass dropped {len(errors)}: {errors[:3]}"
        lines.append(
            f"{'cold':>12} {elapsed:>8.2f}s "
            f"{BURST_TREES / elapsed:>9,.0f} "
            f"{_percentile(latencies, 0.50) * 1e3:>8.1f} "
            f"{_percentile(latencies, 0.99) * 1e3:>8.1f}"
        )

        for path in ("json", "binary"):
            if path == "json":
                elapsed, latencies, errors = _drive(
                    server.port, BURST_CLIENTS, requests, wire="json"
                )
            else:
                elapsed, latencies, errors, served_all = _drive_async(
                    server.port, BURST_CLIENTS, requests, wire="binary"
                )
            assert not errors, (
                f"{path}: dropped {len(errors)} of {BURST_TREES} "
                f"burst requests: {errors[:3]}"
            )
            assert len(latencies) == BURST_TREES
            served = client.submit(probe)["result"]
            assert served["io_volume"] == offline.io_volume
            assert served["schedule"] == list(offline.schedule)
            metrics = client.metrics()
            assert metrics["requests"]["rejected"] == 0
            if path == "binary":
                # every burst request rode a frame, none fell back, and
                # every warm hit carries the same provenance JSON gets
                assert metrics["requests"]["wire"] >= BURST_TREES
                for envelope in served_all:
                    assert envelope is not None and envelope["ok"]
                    assert envelope["cached"]
            stats[path] = {
                "elapsed_s": round(elapsed, 3),
                "trees_per_s": round(BURST_TREES / elapsed, 1),
                "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 2),
                "p99_ms": round(_percentile(latencies, 0.99) * 1e3, 2),
            }
            lines.append(
                f"{path + ' warm':>12} {elapsed:>8.2f}s "
                f"{BURST_TREES / elapsed:>9,.0f} "
                f"{stats[path]['p50_ms']:>8.1f} {stats[path]['p99_ms']:>8.1f}"
            )

    speedup = stats["binary"]["trees_per_s"] / stats["json"]["trees_per_s"]
    lines.append(f"binary/json throughput ratio: {speedup:.2f}x")
    emit("service_wire", "\n".join(lines))

    out_dir = Path(__file__).parent / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "BENCH_wire.json").write_text(
        json.dumps(
            {
                "bench": "binary_async_burst_vs_json",
                "workers": batch_jobs,
                "clients": BURST_CLIENTS,
                "requests": BURST_TREES,
                "tree_nodes": BURST_NODES,
                "json": stats["json"],
                "binary": stats["binary"],
                "speedup": round(speedup, 2),
                "gate": BINARY_SPEEDUP_MIN,
            },
            indent=2,
        )
        + "\n"
    )

    assert speedup >= BINARY_SPEEDUP_MIN, (
        f"binary+async must be >= {BINARY_SPEEDUP_MIN}x the JSON path, "
        f"got {speedup:.2f}x ({stats})"
    )


# --------------------------------------------------------------------- #
# observability overhead: metrics on (tracing off) vs everything off
# --------------------------------------------------------------------- #

OBS_OVERHEAD_MAX = float(os.environ.get("OBS_OVERHEAD_MAX", "0.03"))
OBS_WARM_PASSES = 3


def test_observability_overhead_is_negligible(tmp_path, batch_jobs, emit):
    """The observability tax, gated: metrics on must cost <= {OBS_OVERHEAD_MAX:.0%}.

    The default server counts every request into the metrics registry
    (tracing stays per-request opt-in and is *off* here — the claimed
    near-zero path).  The baseline server runs ``observability=False``,
    which no-ops every counter.  Both replay the {BURST_TREES}-request
    warm burst over the pipelined binary path — pure wire + bookkeeping,
    no compute — best of {OBS_WARM_PASSES} passes each, so the gate
    measures exactly the per-request cost the registry adds.
    """
    requests = _burst_requests()
    stats: dict[str, dict] = {}
    lines = [
        f"workers={batch_jobs} clients={BURST_CLIENTS} "
        f"requests={BURST_TREES} warm_passes={OBS_WARM_PASSES} "
        f"gate<={OBS_OVERHEAD_MAX:.1%}",
        f"{'mode':>12} {'elapsed':>9} {'trees/s':>9} "
        f"{'p50 ms':>8} {'p99 ms':>8}",
    ]
    for mode, observability in (("baseline", False), ("metrics-on", True)):
        cache = ResultCache(tmp_path / f"cache-{mode}")
        config = ServerConfig(
            port=0,
            workers=batch_jobs,
            queue_limit=max(64, 4 * BURST_CLIENTS),
            max_batch=64,
            shm_min_nodes=0,
            observability=observability,
        )
        with ServerThread(config, cache=cache) as server:
            server.server.pool.warm_up()
            client = ServiceClient(port=server.port)
            assert client.wait_ready(30)
            # cold pass fills the cache (unmeasured: compute-bound)
            _, _, errors = _drive(server.port, BURST_CLIENTS, requests)
            assert not errors, f"{mode} cold pass dropped {len(errors)}"
            best = None
            for _ in range(OBS_WARM_PASSES):
                elapsed, latencies, errors, _served = _drive_async(
                    server.port, BURST_CLIENTS, requests, wire="binary"
                )
                assert not errors, f"{mode}: dropped {len(errors)}"
                assert len(latencies) == BURST_TREES
                if best is None or elapsed < best[0]:
                    best = (elapsed, latencies)
            elapsed, latencies = best
            metrics = client.metrics()
            if observability:
                assert metrics["requests"]["rejected"] == 0
                assert metrics["requests"]["received"] > 0
            else:
                # the baseline truly counts nothing
                assert metrics["requests"]["received"] == 0
        stats[mode] = {
            "elapsed_s": round(elapsed, 3),
            "trees_per_s": round(BURST_TREES / elapsed, 1),
            "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 2),
            "p99_ms": round(_percentile(latencies, 0.99) * 1e3, 2),
        }
        lines.append(
            f"{mode:>12} {elapsed:>8.2f}s {BURST_TREES / elapsed:>9,.0f} "
            f"{stats[mode]['p50_ms']:>8.1f} {stats[mode]['p99_ms']:>8.1f}"
        )

    overhead = 1.0 - (
        stats["metrics-on"]["trees_per_s"] / stats["baseline"]["trees_per_s"]
    )
    lines.append(f"observability overhead: {overhead:+.2%} (gate {OBS_OVERHEAD_MAX:.1%})")
    emit("service_obs_overhead", "\n".join(lines))

    out_dir = Path(__file__).parent / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "BENCH_obs.json").write_text(
        json.dumps(
            {
                "bench": "observability_overhead",
                "workers": batch_jobs,
                "clients": BURST_CLIENTS,
                "requests": BURST_TREES,
                "warm_passes": OBS_WARM_PASSES,
                "baseline": stats["baseline"],
                "metrics_on": stats["metrics-on"],
                "overhead": round(overhead, 4),
                "gate": OBS_OVERHEAD_MAX,
            },
            indent=2,
        )
        + "\n"
    )

    assert overhead <= OBS_OVERHEAD_MAX, (
        f"metrics-on warm burst must stay within {OBS_OVERHEAD_MAX:.1%} of "
        f"the observability-off baseline, lost {overhead:.2%} ({stats})"
    )
