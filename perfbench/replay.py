"""Layer replay: the stages the server does not time, timed per call.

The traced service runs replay a slice of the workload's own requests in
the benchmark process, through each layer's public functions, in the
order a request meets them: parse (JSON) or frame decode (binary), key,
tree build, solve, validate, cache put and get, response encode.  Each
metric is the median over the replayed requests of one call's time.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from common import median

#: the strategies whose per-call solve time is reported (the paper's four).
STRATEGIES = ("RecExpand", "FullRecExpand", "OptMinMem", "PostOrderMinIO")


def replay(payloads: list[dict], cache_dir: Path) -> dict[str, float]:
    from repro.api import build_tree, ok_envelope, parse_request
    from repro.api.execution import run_solve
    from repro.core.traversal import validate
    from repro.datasets.store import ResultCache
    from repro.experiments.registry import get_algorithm
    from repro.service.wire import (
        encode_request_frame,
        encode_response_frame,
        request_from_frame,
    )

    clock = time.perf_counter
    cache = ResultCache(cache_dir)
    calls: dict[str, list[float]] = {}

    def timed(name: str, scale: float, fn, *args):
        t0 = clock()
        value = fn(*args)
        calls.setdefault(name, []).append((clock() - t0) * scale)
        return value

    us, ms = 1e6, 1e3
    for payload in payloads:
        body = json.dumps(payload).encode("utf-8")
        frame = encode_request_frame(payload)
        request = timed("api.requests.parse_us", us,
                        lambda: parse_request(json.loads(body)))
        timed("service.wire.request_from_frame_us", us, request_from_frame, frame)
        key = timed("api.requests.key_us", us, request.key)
        tree = timed("api.execution.build_tree_us", us,
                     build_tree, request.parents, request.weights)
        traversal = timed(f"algorithms.solve_ms.{request.algorithm}", ms,
                          get_algorithm(request.algorithm), tree, request.memory)
        timed("core.traversal.validate_us", us,
              validate, tree, traversal, request.memory)
        result = run_solve(request, tree=tree)
        timed("datasets.store.put_us", us, cache.put, key, result)
        timed("datasets.store.get_us", us, cache.get, key)
        envelope = ok_envelope(result, key=key, cached=True)
        timed("service.wire.encode_response_frame_us", us,
              encode_response_frame, envelope)
        timed("api.outcome.json_encode_us", us,
              lambda: json.dumps(envelope).encode("utf-8"))

    names = [
        "api.requests.parse_us", "service.wire.request_from_frame_us",
        "api.requests.key_us", "datasets.store.get_us", "datasets.store.put_us",
        "api.execution.build_tree_us", "core.traversal.validate_us",
        "service.wire.encode_response_frame_us", "api.outcome.json_encode_us",
        *(f"algorithms.solve_ms.{s}" for s in STRATEGIES),
    ]
    # a strategy the workload never sends reports 0 (the layer is idle)
    return {name: median(calls.get(name, [])) for name in names}
