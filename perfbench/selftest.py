"""Toy-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that a corrupted response or payload counts as failed, that the
``/metrics`` delta arithmetic matches a fixture snapshot (and refuses a
phase the server's latency window does not cover), that span self times
add up, that ``BENCHMARK.json`` names exactly the metrics the runs print,
and — live, with ``--seconds 1``, which makes every workload's run small
— that every workload prints every metric with its unit in both modes,
and that the benchmark refuses to run (non-zero exit, no result line) in
a checkout without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

from batch_program import check_batch
from common import ROOT, RUN_DIR, BenchmarkError
from run import END_TO_END, PER_LAYER, WORKLOADS
from service import Reply, check_cold, check_warm, counter_deltas, solve_digest
from spans import SpanRecorder

HERE = Path(__file__).resolve().parent


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def test_corruption_counts_as_failed() -> None:
    good = {"kind": "solve", "io_volume": 7, "schedule": [2, 0, 1]}
    offline = {0: solve_digest(0, good)}

    def cold(result):
        return Reply(0, "binary", 0.001, None, solve_digest(0, result))

    assert check_cold([cold(dict(good))], offline) == 0
    assert check_cold([cold(dict(good, io_volume=8))], offline) == 1
    assert check_cold([cold(dict(good, schedule=[0, 2, 1]))], offline) == 1
    assert check_cold([Reply(0, "json", 0.001, "queue_full")], offline) == 1

    # the warm phase compares each answer with the fill's as it arrives
    def warm(result):
        return Reply(0, "json", 0.001, None, result == good)

    assert check_warm([warm(dict(good))]) == 0
    assert check_warm([warm(dict(good, io_volume=8))]) == 1
    assert check_warm([Reply(0, "binary", 0.001, "timeout")]) == 1

    payload = {"io": {"OptMinMem": [3, 0]}, "memories": [9, 9], "sizes": [64, 80]}
    corrupted = {"io": {"OptMinMem": [3, 1]}, "memories": [9, 9], "sizes": [64, 80]}
    records = [
        (0, 0.01, 2, SimpleNamespace(ok=True, result=payload)),
        (0, 0.01, 2, SimpleNamespace(ok=True, result=corrupted)),
        (0, 0.01, 2, SimpleNamespace(ok=False, result=None)),
    ]
    assert check_batch(records, [payload]) == [True, False, False]


def test_metrics_delta_arithmetic() -> None:
    fixture = json.loads((HERE / "fixtures" / "metrics_snapshots.json").read_text())
    before, after = fixture["before"], fixture["after"]
    got = counter_deltas(before, after, client_p50_ms=fixture["client_p50_ms"])
    assert set(got) == set(fixture["expected"]), set(got) ^ set(fixture["expected"])
    for name, expected in fixture["expected"].items():
        assert _close(got[name], expected), (name, got[name], expected)

    wrapped = dict(after, requests=dict(
        after["requests"], completed=fixture["wrapped_completed"]
    ))
    try:
        counter_deltas(before, wrapped, client_p50_ms=fixture["client_p50_ms"])
    except BenchmarkError:
        pass
    else:
        raise AssertionError("a phase longer than the latency window was accepted")


def test_span_self_times() -> None:
    recorder = SpanRecorder()
    # root [0, 10] > batch [1, 9] > {forest [2, 4], validate [5, 8] > key [6, 7]}
    recorder.spans = [
        ["batch.unit", 0.0, 10.0, -1, 1],
        ["api.execution.execute_batch", 1.0, 9.0, 0, 1],
        ["core.forest.build", 2.0, 4.0, 1, 1],
        ["core.traversal.validate", 5.0, 8.0, 1, 1],
        ["api.requests.key", 6.0, 7.0, 3, 1],
    ]
    assert recorder.self_times() == [2.0, 3.0, 2.0, 2.0, 1.0]
    summary = recorder.summary()
    assert summary["core.traversal.validate"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert recorder.subtree_self_s("api.execution.execute_batch") == (8.0, 8.0)


def test_benchmark_json_matches_the_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def test_live_runs_print_every_metric() -> None:
    for workload in WORKLOADS:
        for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr[-2000:]
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, result
            assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
            table = "\n".join(lines[:-1])
            for name in (*END_TO_END, "latency_p50_ms_json", "latency_p99_ms_binary",
                         "error_rate"):
                assert name in table, (workload, name)
            print(f"  ok: {workload} --trace {trace}", flush=True)


def test_refuses_without_the_program() -> None:
    bare = RUN_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "batch",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180,
        )
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            RUN_DIR.rmdir()
        except OSError:
            pass


def main() -> int:
    tests = [
        test_corruption_counts_as_failed,
        test_metrics_delta_arithmetic,
        test_span_self_times,
        test_benchmark_json_matches_the_runs,
        test_refuses_without_the_program,
        test_live_runs_print_every_metric,
    ]
    for test in tests:
        print(f"{test.__name__} ...", flush=True)
        test()
    print(f"selftest: {len(tests)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
