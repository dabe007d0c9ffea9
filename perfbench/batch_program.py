"""The ``batch`` workload's program process.

Started by ``batch.py`` with the benchmark's generated inputs on stdin,
one JSON line at a time:

1. a warm-up unit: the process imports the program, runs that unit
   through ``LocalBackend(cache=None).run`` and prints ``{"ready": ...}``
   — the end of set-up;
2. either ``{"quit": true}`` (a set-up probe) or the run: the corpus of
   units, how many passes over it to time and whether to trace.

The timed phase makes that many passes over the corpus, one fresh
``BatchRequest`` per call (so each call derives its key, as a new unit
would), and times every call.  Afterwards, untimed, each distinct unit is solved again with
``forest=False``; a payload that differs from that reference is a failed
unit.  The report is one JSON line on stdout.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Any

from common import vm_hwm_mb


def _unit(raw: dict[str, Any], *, forest: bool = True):
    from repro.api import BatchRequest

    return BatchRequest(
        trees=tuple((tuple(p), tuple(w)) for p, w in raw["trees"]),
        algorithms=tuple(raw["algorithms"]),
        bound=raw["bound"],
        forest=forest,
    )


def timed_phase(backend, units, passes: int, recorder=None):
    """``(records, elapsed)``; a record is ``(unit index, seconds, trees, outcome)``."""
    from repro.api import BatchRequest

    records = []
    start = time.perf_counter()
    for i in range(passes * len(units)):
        unit = units[i % len(units)]
        fresh = BatchRequest(trees=unit.trees, algorithms=unit.algorithms, bound=unit.bound)
        if recorder is not None:
            recorder.request_id = i
            span = recorder.open("batch.unit")
        t0 = time.perf_counter()
        outcome = backend.run([fresh])[0]
        t1 = time.perf_counter()
        if recorder is not None:
            recorder.close(span)
        records.append((i % len(units), t1 - t0, len(unit.trees), outcome))
    return records, time.perf_counter() - start


def check_batch(records, references) -> list[bool]:
    """Per record: did the unit succeed with the reference payload?"""
    return [
        outcome.ok and outcome.result == references[index]
        for index, _, _, outcome in records
    ]


def summarize(records, ok: list[bool], elapsed: float) -> dict[str, Any]:
    return {
        "attempted": len(records),
        "failed": ok.count(False),
        "elapsed": elapsed,
        # per timed call: unit index, seconds, trees, answer correct
        "calls": [[i, s, n, good] for (i, s, n, _), good in zip(records, ok)],
    }


def main() -> int:
    warmup = json.loads(sys.stdin.readline())
    from repro.api import LocalBackend

    backend = LocalBackend(cache=None)
    if not backend.run([_unit(warmup)])[0].ok:
        raise SystemExit("warm-up unit failed")
    print(json.dumps({"ready": True}), flush=True)

    command = json.loads(sys.stdin.readline())
    if command.get("quit"):
        return 0
    units = [_unit(raw) for raw in command["corpus"]]
    records, elapsed = timed_phase(backend, units, command["passes"])
    peak = vm_hwm_mb(os.getpid())

    references = [
        LocalBackend(cache=None).run([_unit(raw, forest=False)])[0].result
        for raw in command["corpus"]
    ]
    report: dict[str, Any] = {
        "main": summarize(records, check_batch(records, references), elapsed),
        "peak_rss_mb": peak,
    }
    if command["trace"]:
        from spans import SpanRecorder, batch_layer_metrics, install_batch_wrappers

        recorder = SpanRecorder()
        undo = install_batch_wrappers(recorder)
        try:
            traced, traced_elapsed = timed_phase(
                backend, units, command["passes"], recorder
            )
        finally:
            undo()
        report["traced"] = summarize(
            traced, check_batch(traced, references), traced_elapsed
        )
        layers = batch_layer_metrics(recorder)
        total, covered = recorder.subtree_self_s("api.execution.execute_batch")
        report["per_layer"] = layers
        report["self_time_check"] = {"execute_batch_s": total, "sum_of_self_s": covered}
        recorder.write(Path(command["spans_path"]))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
