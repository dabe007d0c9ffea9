"""The repository's benchmark: one seeded run of one workload.

    python3 perfbench/run.py --workload batch --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` measures the end-to-end metrics with the program
unpatched; ``--trace 1`` runs the same untraced phase, then a traced
phase and (service workloads) a layer replay, and reports the per-layer
metrics instead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a human-readable
table of every metric precedes it.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from common import BenchmarkError, make_work_dir, remove_work_dir, require_program

#: name -> why the workload exists; each stresses a different layer.
WORKLOADS: dict[str, str] = {
    "batch": "whole-forest batches: forest build, bounds, kernels, keys and "
             "validate do the work; wire, pool and cache stay idle",
    "service_cold": "distinct solve requests against the server: every request "
                    "misses the cache, so queue, pool transport and solvers do the work",
    "service_warm": "repeated requests against a restarted server over a full cache: "
                    "decode, memo and disk reads, encode and the event loop do the work",
}

#: end-to-end metrics (``--trace 0``): name -> unit.
END_TO_END: dict[str, str] = {
    "trees_per_s": "trees/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_BATCH_LAYERS = {
    "api.requests.key_s": "s",
    "core.forest.build_s": "s",
    "core.forest.tree_calls": "count",
    "core.forest_kernels.bounds_s": "s",
    "core.forest_kernels.traversals_s.OptMinMem": "s",
    "core.forest_kernels.traversals_s.PostOrderMinIO": "s",
    "core.traversal.validate_s": "s",
    "core.traversal.validate_calls": "count",
    "api.execution.self_s": "s",
    "api.execution.execute_batch_s": "s",
}
_SERVICE_COUNTERS = {
    "service.server.requests": "count",
    "service.server.errors": "count",
    "service.server.rejected": "count",
    "service.server.timeouts": "count",
    "service.server.deduped": "count",
    "service.server.latency_p50_ms": "ms",
    "service.server.latency_p99_ms": "ms",
    "service.aioclient.overhead_p50_ms": "ms",
    "service.aioclient.latency_p50_ms_json": "ms",
    "service.aioclient.latency_p99_ms_json": "ms",
    "service.aioclient.latency_p50_ms_binary": "ms",
    "service.aioclient.latency_p99_ms_binary": "ms",
    "service.pool.batches": "count",
    "service.pool.batch_size_mean": "req/batch",
    "datasets.store.memo_hits": "count",
    "datasets.store.disk_hits": "count",
    "datasets.store.misses": "count",
    "datasets.store.disk_share": "fraction",
    "service.wire.rx_bytes_per_req": "B/req",
    "service.wire.tx_bytes_per_req": "B/req",
}
_SERVICE_STAGES = {
    f"{layer}.{stage}.{q}": "ms"
    for layer, stage in (
        ("service.server", "decode_ms.json"),
        ("service.server", "decode_ms.binary"),
        ("service.server", "cache_ms"),
        ("service.server", "queue_ms"),
        ("api.execution", "solve_ms"),
        ("service.server", "encode_ms"),
    )
    for q in ("p50", "p99")
}
_REPLAY = {
    "api.requests.parse_us": "us",
    "service.wire.request_from_frame_us": "us",
    "api.requests.key_us": "us",
    "datasets.store.get_us": "us",
    "datasets.store.put_us": "us",
    "api.execution.build_tree_us": "us",
    "algorithms.solve_ms.RecExpand": "ms",
    "algorithms.solve_ms.FullRecExpand": "ms",
    "algorithms.solve_ms.OptMinMem": "ms",
    "algorithms.solve_ms.PostOrderMinIO": "ms",
    "core.traversal.validate_us": "us",
    "service.wire.encode_response_frame_us": "us",
    "api.outcome.json_encode_us": "us",
}
#: per-layer metrics (``--trace 1``): name -> unit.  Every traced run
#: reports all of them; a layer a workload leaves idle reads 0.
PER_LAYER: dict[str, str] = {
    **_BATCH_LAYERS,
    **_SERVICE_COUNTERS,
    **_SERVICE_STAGES,
    **_REPLAY,
    "obs.tracing_overhead": "ratio",
}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """One run: ``{"attempted", "failed", "end_to_end", "table"[, "per_layer"]}``."""
    require_program()
    work_dir = make_work_dir(workload, seed)
    try:
        if workload == "batch":
            from batch import run_batch

            return run_batch(seed, seconds, trace, work_dir)
        from service import run_service

        return run_service(workload, seed, seconds, trace, work_dir)
    finally:
        remove_work_dir(work_dir)


def result_line(run: dict[str, Any], trace: bool) -> dict[str, Any]:
    """The contract's last line: every metric of the mode, with its unit."""
    if trace:
        values, units = run["per_layer"], PER_LAYER
    else:
        values, units = run["end_to_end"], END_TO_END
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }


def print_table(workload: str, run: dict[str, Any], trace: bool) -> None:
    """Every end-to-end metric by name and unit (n/a where it does not apply)."""
    e2e, table = run["end_to_end"], run["table"]
    rows: list[tuple[str, Any, str]] = [
        (name, e2e[name], unit) for name, unit in END_TO_END.items()
    ]
    for enc in ("json", "binary"):
        for q in ("p50", "p99"):
            rows.append((f"latency_{q}_ms_{enc}", table.get(f"latency_{q}_ms_{enc}"), "ms"))
    rows.append(("error_rate", run["failed"] / run["attempted"], "fraction"))
    print(f"== {workload}: {run['attempted']} attempted, {run['failed']} failed")
    for name, value, unit in rows:
        shown = "n/a" if value is None else f"{value:.4g}"
        print(f"  {name:<24} {shown:>12} {unit}")
    if trace:
        for name, unit in PER_LAYER.items():
            print(f"  {name:<48} {run['per_layer'].get(name, 0.0):>12.4g} {unit}")
    extra = {k: v for k, v in table.items() if not k.startswith("latency_")}
    print(f"  {json.dumps(extra)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    try:
        if args.workload == "all":
            lines = {}
            for workload in WORKLOADS:
                run = run_workload(workload, args.seed, args.seconds, trace)
                print_table(workload, run, trace)
                lines[workload] = result_line(run, trace)
            print(json.dumps(lines))
            return 0 if all(line["correct"] for line in lines.values()) else 1
        run = run_workload(args.workload, args.seed, args.seconds, trace)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print_table(args.workload, run, trace)
    print(json.dumps(result_line(run, trace)))
    return 0 if run["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
