"""The ``batch`` workload: whole-forest batches in their own process.

The benchmark generates the units, then starts ``batch_program.py``
``SETUP_LAUNCHES`` times: set-up is process start until the program's
imports and one warm-up unit are done, and ``setup_s`` is the median.
The last process also runs the timed phase (and, traced, a second timed
phase with the layer wrappers installed).  A timed phase makes
``round(seconds / PASS_SECONDS)`` passes over the corpus: the count
follows from ``--seconds`` alone, so faster code gets no more repeats.
"""

from __future__ import annotations

import json
import selectors
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import inputs
from common import OUT_DIR, BenchmarkError, median, percentile, program_env

HERE = Path(__file__).resolve().parent
SETUP_LAUNCHES = 3
#: the nominal length of one pass over the corpus.
PASS_SECONDS = 1.5


class _Program:
    def __init__(self, work_dir: Path):
        self.log = open(work_dir / "batch_program.log", "ab")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "batch_program.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log,
            env=program_env(), cwd=work_dir,
        )

    def send(self, obj: Any) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(json.dumps(obj).encode("utf-8") + b"\n")
        self.proc.stdin.flush()

    def read(self, timeout: float) -> dict[str, Any]:
        assert self.proc.stdout is not None
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout):
                raise BenchmarkError("batch program did not answer in time")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchmarkError("batch program died; see batch_program.log")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()
        self.log.close()


def run_batch(seed: int, seconds: float, trace: bool, work_dir: Path) -> dict[str, Any]:
    corpus = inputs.batch_corpus(seed)
    setups: list[float] = []
    for launch in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        program = _Program(work_dir)
        try:
            program.send(corpus[0])
            program.read(timeout=120)
            setups.append(time.perf_counter() - t0)
            if launch < SETUP_LAUNCHES - 1:
                program.send({"quit": True})
                program.proc.wait(timeout=30)
                continue
            spans_path = OUT_DIR / f"batch-seed{seed}.spans.jsonl"
            program.send({
                "corpus": corpus, "passes": max(1, round(seconds / PASS_SECONDS)),
                "trace": trace,
                "spans_path": str(spans_path),
            })
            report = program.read(timeout=6 * seconds + 120)
            program.proc.wait(timeout=30)
        finally:
            program.close()

    main = report["main"]
    rates = unit_rates(main["calls"])
    result: dict[str, Any] = {
        "attempted": main["attempted"],
        "failed": main["failed"],
        "end_to_end": {
            "trees_per_s": rates["trees_per_s"],
            "latency_p50_ms": rates["latency_p50_ms"],
            "latency_p99_ms": rates["latency_p99_ms"],
            "setup_s": median(setups),
            "peak_rss_mb": report["peak_rss_mb"],
        },
        "table": {
            "units": main["attempted"],
            "trees_per_s_wall": rates["trees"] / main["elapsed"],
            "setup_samples_s": setups,
        },
    }
    if trace:
        traced = report["traced"]
        result["attempted"] += traced["attempted"]
        result["failed"] += traced["failed"]
        per_layer = dict(report["per_layer"])
        per_layer["obs.tracing_overhead"] = (
            rates["trees_per_s"] / unit_rates(traced["calls"])["trees_per_s"]
        )
        result["per_layer"] = per_layer
        result["table"]["self_time_check"] = report["self_time_check"]
        result["table"]["spans"] = str(spans_path)
    return result


def unit_rates(calls: list[list[Any]]) -> dict[str, float]:
    """Throughput and per-tree latency from the timed calls.

    Every corpus unit runs once per pass and does the same work each
    time, with no queue in front of it, so a slower run of it only
    measures other load on the machine: each unit's time is its fastest
    correct run.
    ``trees_per_s`` is the rate of one pass over the corpus at those
    times.  The latency percentiles are over trees: each tree counts
    once, at its unit's time per tree (so the 64-tree units, which hold
    most trees, set the median and the 8-tree units the tail).
    """
    times: dict[int, list[float]] = {}
    trees: dict[int, int] = {}
    solved = 0
    for index, seconds, n, good in calls:
        if good:
            times.setdefault(index, []).append(seconds)
            trees[index] = n
            solved += n
    unit_s = {index: min(values) for index, values in times.items()}
    per_tree_ms = [
        unit_s[i] * 1000.0 / trees[i] for i in unit_s for _ in range(trees[i])
    ]
    return {
        "trees": solved,
        "trees_per_s": sum(trees.values()) / sum(unit_s.values()) if unit_s else 0.0,
        "latency_p50_ms": percentile(per_tree_ms, 0.50),
        "latency_p99_ms": percentile(per_tree_ms, 0.99),
    }
