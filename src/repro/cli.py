"""Command-line interface: inspect trees, run strategies, regenerate figures.

Examples
--------
::

    repro-ioschedule demo
    repro-ioschedule info --tree tree.json
    repro-ioschedule solve --tree tree.json --memory 64 --algorithm RecExpand
    repro-ioschedule figure --id fig4 --scale tiny --svg fig4.svg
    repro-ioschedule instance --name figure_2b --algorithm OptMinMem
    repro-ioschedule paging --tree tree.json --memory 64 --page-size 4
    repro-ioschedule exact --tree tree.json --memory 64
    repro-ioschedule parallel --tree tree.json --memory 64 --processors 4
    repro-ioschedule draw --tree tree.json --out tree.svg
    repro-ioschedule report --scale tiny --outdir results
    repro-ioschedule report --scale small --jobs 4 --cache-dir results/cache
    repro-ioschedule serve --port 8177 --workers 4
    repro-ioschedule submit --tree tree.json --memory 64 --algorithm RecExpand

Exit codes: 0 on success, 2 on bad arguments or invalid input (including
requests the service rejects as malformed), 1 on transport or internal
failures when talking to a server.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Mapping, Sequence

from . import __version__
from .analysis.bounds import memory_bounds
from .analysis.profiles import render_ascii, to_csv
from .api.errors import EXIT_BAD_INPUT, ApiError
from .core.traversal import validate
from .core.tree import TaskTree, TreeError
from .datasets import instances as paper_instances
from .experiments.figures import FIGURES
from .experiments.registry import ALGORITHMS, get_algorithm, strategy_names

__all__ = ["main"]


def _load_tree(path: str) -> TaskTree:
    with open(path) as fh:
        return TaskTree.from_dict(json.load(fh))


def _cmd_info(args: argparse.Namespace) -> int:
    tree = _load_tree(args.tree)
    bounds = memory_bounds(tree)
    print(f"nodes           : {tree.n}")
    print(f"depth           : {tree.depth()}")
    print(f"leaves          : {len(tree.leaves())}")
    print(f"total weight    : {tree.total_weight()}")
    print(f"LB (max wbar)   : {bounds.lb}")
    print(f"Peak_incore     : {bounds.peak_incore}")
    print(f"I/O regime      : {'[%d, %d]' % (bounds.m1, bounds.m2) if bounds.has_io_regime else 'none'}")
    return 0


def _print_solve(
    algorithm: str,
    memory: int,
    io_volume: int,
    performance: float,
    schedule: Sequence[int],
    io: Mapping[int, int],
    *,
    show_schedule: bool,
) -> None:
    """Shared by ``solve`` (offline) and ``submit`` (served) so the two
    render byte-identical output for the same request."""
    print(f"algorithm   : {algorithm}")
    print(f"memory      : {memory}")
    print(f"io volume   : {io_volume}")
    print(f"performance : {performance:.4f}")
    if show_schedule:
        print("schedule    :", " ".join(map(str, schedule)))
        nonzero = {v: a for v, a in io.items() if a}
        print("io function :", nonzero if nonzero else "(no I/O)")


def _cmd_solve(args: argparse.Namespace) -> int:
    from .api import LocalBackend, SolveRequest

    # One typed request, executed through the LocalBackend view of the
    # API.  Built directly rather than via parse_request: _load_tree
    # already ran the full structural validation and argparse pinned
    # the algorithm to known choices, and the wire-schema caps
    # (MAX_NODES, the 10^15 memory ceiling) protect the *service* — the
    # offline path must keep taking million-node trees and the
    # beyond-int64 memory bounds the TaskTree lists support.  An
    # infeasible memory still fails as "unsolvable" (exit 2) like every
    # other backend.
    tree = _load_tree(args.tree)
    request = SolveRequest(
        parents=tree.parents,
        weights=tree.weights,
        memory=args.memory,
        algorithm=args.algorithm,
    )
    outcome = LocalBackend().submit(request).raise_for_error()
    result = outcome.result
    _print_solve(
        result["algorithm"],
        result["memory"],
        result["io_volume"],
        result["performance"],
        result["schedule"],
        {int(v): a for v, a in result["io"].items()},
        show_schedule=args.show_schedule,
    )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    builder = FIGURES[args.id]
    result = builder(args.scale)
    print(result.summary())
    print()
    print(render_ascii(result.profile, max_threshold=args.max_overhead))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(to_csv(result.profile))
        print(f"\ncurves written to {args.csv}")
    if args.svg:
        from .viz import profile_chart

        with open(args.svg, "w") as fh:
            fh.write(
                profile_chart(
                    result.profile,
                    title=result.name,
                    max_threshold=args.max_overhead,
                )
            )
        print(f"figure written to {args.svg}")
    return 0


def _print_paging(result: Mapping[str, Any]) -> None:
    """Shared by ``paging`` (offline) and ``submit --kind paging``."""
    print(
        f"schedule from {result['algorithm']}; memory {result['memory']}, "
        f"page size {result['page_size']}"
    )
    print(f"{'policy':<10} {'writes':>8} {'reads':>8} {'units':>8} {'est. time':>10}")
    for row in result["policies"]:
        print(
            f"{row['policy']:<10} {row['write_pages']:>8} {row['read_pages']:>8} "
            f"{row['write_units']:>8} {row['est_seconds']:>9.3f}s"
        )


def _print_exact(result: Mapping[str, Any]) -> None:
    """Shared by ``exact`` (offline) and ``submit --kind exact``; rows in
    the paper's order (a served envelope's keys come back sorted)."""
    from .experiments.registry import PAPER_ALGORITHMS

    print(f"exact optimum : {result['certificate']}")
    for name in PAPER_ALGORITHMS:
        row = result["gaps"][name]
        print(f"  {name:<16} io = {row['io_volume']:6d}   gap = {row['gap']:7.2%}")


def _cmd_paging(args: argparse.Namespace) -> int:
    from .api import LocalBackend, PagingRequest
    from .api.requests import DEFAULT_PAGING_POLICIES

    # built directly, not parsed, for the reason given in _cmd_solve
    tree = _load_tree(args.tree)
    request = PagingRequest(
        parents=tree.parents,
        weights=tree.weights,
        memory=args.memory,
        algorithm=args.algorithm,
        page_size=args.page_size,
        policies=tuple(args.policy or DEFAULT_PAGING_POLICIES),
        seed=args.seed,
    )
    _print_paging(LocalBackend().submit(request).raise_for_error().result)
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    from .api import ExactRequest, LocalBackend

    tree = _load_tree(args.tree)
    request = ExactRequest(
        parents=tree.parents,
        weights=tree.weights,
        memory=args.memory,
        max_states=args.max_states,
        node_limit=args.node_limit,
    )
    _print_exact(LocalBackend().submit(request).raise_for_error().result)
    return 0


def _cmd_parallel(args: argparse.Namespace) -> int:
    from .parallel import simulate_activation, simulate_parallel
    from .parallel.strategies import priority_from_schedule

    tree = _load_tree(args.tree)
    order = get_algorithm(args.algorithm)(tree, args.memory).schedule
    if args.window:
        report = simulate_activation(
            tree, args.memory, args.processors, order,
            window=args.window, bandwidth=args.bandwidth,
        )
    else:
        report = simulate_parallel(
            tree, args.memory, args.processors,
            priority_from_schedule(order), bandwidth=args.bandwidth,
        )
    print(f"processors  : {args.processors}"
          + (f"   window : {args.window}" if args.window else ""))
    print(f"makespan    : {report.makespan:.2f}")
    print(f"io volume   : {report.io_volume}")
    print(f"peak memory : {report.peak_memory}")
    print(f"utilisation : {report.utilisation():.1%}")
    if args.gantt:
        from .viz import gantt_chart

        with open(args.gantt, "w") as fh:
            fh.write(gantt_chart(report, title=f"p={args.processors}, M={args.memory}"))
        print(f"gantt chart : {args.gantt}")
    return 0


def _cmd_draw(args: argparse.Namespace) -> int:
    from .viz import tree_chart

    tree = _load_tree(args.tree)
    schedule = None
    io = None
    if args.algorithm and args.memory is not None:
        traversal = get_algorithm(args.algorithm)(tree, args.memory)
        schedule = traversal.schedule
        io = {v: a for v, a in enumerate(traversal.io) if a}
    svg = tree_chart(tree, schedule=schedule, io=io, title=args.title or "")
    with open(args.out, "w") as fh:
        fh.write(svg)
    print(f"tree diagram written to {args.out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import pathlib

    from .datasets.store import ResultCache
    from .experiments.batch import run_batch_report
    from .experiments.runner import report_to_text

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cache = None
    if not args.no_cache:
        cache_dir = pathlib.Path(args.cache_dir) if args.cache_dir else outdir / "cache"
        if cache_dir.exists() and not cache_dir.is_dir():
            print(f"error: --cache-dir {cache_dir} exists and is not a directory",
                  file=sys.stderr)
            return 2
        cache = ResultCache(cache_dir)
    report = run_batch_report(
        args.scale,
        jobs=args.jobs,
        cache=cache,
        forest=args.forest,
        progress=print,
    )
    json_path = outdir / f"experiments_{args.scale}.json"
    json_path.write_text(report.to_json())
    print(report_to_text(report))
    if cache is not None:
        stats = cache.stats()
        print(
            f"\ncache: {stats['hits']} hits, {stats['misses']} misses "
            f"({cache.root})"
        )
    print(f"report written to {json_path}")
    return 0


def _cmd_instance(args: argparse.Namespace) -> int:
    builder = getattr(paper_instances, args.name)
    if args.name == "figure_2a":
        inst = builder(extensions=args.k)
    elif args.name == "figure_2c":
        inst = builder(args.k)
    else:
        inst = builder()
    print(f"instance : {inst.name}   (n={inst.tree.n}, M={inst.memory})")
    for name in args.algorithm or sorted(ALGORITHMS):
        traversal = get_algorithm(name)(inst.tree, inst.memory)
        validate(inst.tree, traversal, inst.memory)
        print(f"  {name:<16} io = {traversal.io_volume}")
    if inst.witness_io is not None:
        print(f"  {'paper witness':<16} io = {inst.witness_io}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.server import ServerConfig, ServiceServer

    cache_dir = None if args.no_cache else (args.cache_dir or "results/service-cache")
    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        max_batch=args.max_batch,
        request_timeout=args.timeout,
        cache_dir=cache_dir,
        keepalive_timeout=args.keepalive_timeout,
        max_pipeline=args.max_pipeline,
        dashboard=args.dashboard,
    )
    server = ServiceServer(config)
    server.pool.warm_up()
    print(
        f"serving on http://{config.host}:{config.port} "
        f"(workers={config.workers or f'inline:{config.inline_threads}'}, "
        f"queue={config.queue_limit}, "
        f"cache={cache_dir or 'off'})",
        flush=True,
    )
    if config.dashboard:
        print(
            f"dashboard on http://{config.host}:{config.port}/dash", flush=True
        )
    try:
        server.run()  # returns on SIGTERM
    except KeyboardInterrupt:
        print()
    print("shutting down")
    return 0


def _build_submit_request(args: argparse.Namespace) -> dict[str, Any]:
    with open(args.tree) as fh:
        tree = json.load(fh)
    request: dict[str, Any] = {
        "kind": args.kind,
        "tree": {"parents": tree["parents"], "weights": tree["weights"]},
        "memory": args.memory,
    }
    if args.timeout:
        request["timeout"] = args.timeout
    if args.kind in ("solve", "paging"):
        request["algorithm"] = args.algorithm
    if args.kind == "paging":
        request["page_size"] = args.page_size
        request["seed"] = args.seed
        if args.policy:
            request["policies"] = list(args.policy)
    if args.kind == "exact":
        request["max_states"] = args.max_states
        request["node_limit"] = args.node_limit
    if getattr(args, "trace_schedule", False):
        from .obs import new_trace_id

        # the full observability round trip: a trace id for the stage
        # breakdown plus the schedule-trace flag for the memory curve
        request["trace_schedule"] = True
        request["trace"] = new_trace_id()
    return request


def _cmd_submit(args: argparse.Namespace) -> int:
    from .api import RemoteBackend, parse_request

    if args.probe:
        from .service.client import ServiceClient

        info = ServiceClient(args.host, args.port).health()
        versions = info.get("versions", {})
        print(f"server ok (protocol v{info.get('protocol', '?')})")
        for name in ("repro", "protocol", "wire", "engine"):
            if name in versions:
                print(f"  {name:<9} {versions[name]}")
        return 0
    if args.tree is None or args.memory is None:
        print(
            "error: --tree and --memory are required (unless --probe)",
            file=sys.stderr,
        )
        return EXIT_BAD_INPUT
    if args.trace_schedule and args.kind != "solve":
        print("error: --trace-schedule applies to solve requests only",
              file=sys.stderr)
        return EXIT_BAD_INPUT

    # The same typed request the offline commands build; validation
    # failures are caught here, before any bytes hit the network, with
    # the same codes the server would answer.
    request = parse_request(_build_submit_request(args))
    backend = RemoteBackend(args.host, args.port, wire=args.wire)
    outcome = backend.submit(request).raise_for_error()
    if args.json:
        print(json.dumps(outcome.to_envelope(), indent=2, sort_keys=True))
        return 0
    result = outcome.result
    if args.kind == "solve":
        _print_solve(
            result["algorithm"],
            result["memory"],
            result["io_volume"],
            result["performance"],
            result["schedule"],
            {int(v): a for v, a in result["io"].items()},
            show_schedule=args.show_schedule,
        )
        if "schedule_trace" in result:
            trace = result["schedule_trace"]
            print(
                f"schedule trace: {len(trace['memory'])} events, "
                f"peak memory {trace['peak_memory']}, "
                f"cumulative io {trace['io_volume']}"
            )
        if outcome.timings:
            stages = "  ".join(
                f"{name}={seconds * 1000.0:.2f}ms"
                for name, seconds in sorted(outcome.timings.items())
            )
            print(f"stage timings : {stages}")
    elif args.kind == "paging":
        _print_paging(result)
    else:  # exact
        _print_exact(result)
    if outcome.cached:
        print("(served from result cache)", file=sys.stderr)
    return 0


def _print_dash_once(client) -> None:
    metrics = client.metrics()
    req = metrics["requests"]
    cache = metrics["cache"]
    latency = metrics["latency_ms"]
    looked = cache["hits"] + cache["misses"]
    hit_rate = f"{100.0 * cache['hits'] / looked:.1f}%" if looked else "n/a"
    by_encoding = req.get("by_encoding", {})
    print(
        f"up {metrics['uptime_seconds']:.0f}s   "
        f"queue {metrics['queue_depth']}   inflight {metrics['inflight']}"
    )
    print(
        f"requests  {req['received']} received "
        f"({by_encoding.get('json', 0)} json / "
        f"{by_encoding.get('binary', 0)} binary), "
        f"{req['completed']} completed, {req['computed']} computed, "
        f"{req['deduped_inflight']} deduped"
    )
    print(
        f"errors    {req['errors']} errors, {req['rejected']} rejected, "
        f"{req['timeouts']} timeouts"
    )
    print(
        f"cache     {hit_rate} hit rate "
        f"({cache['hits']} hits / {cache['misses']} misses, "
        f"{cache.get('memo_hits', 0)} memo)"
    )
    print(
        f"latency   p50 {latency['p50']:.2f}ms  p90 {latency['p90']:.2f}ms  "
        f"p99 {latency['p99']:.2f}ms  max {latency['max']:.2f}ms  "
        f"({latency['count']} in window)"
    )
    by_strategy = req.get("by_strategy", {})
    if by_strategy:
        print("by strategy:")
        for name, count in sorted(by_strategy.items()):
            print(f"  {name:<20} {count}")


def _cmd_dash(args: argparse.Namespace) -> int:
    import time as _time

    from .service.client import ServiceClient

    client = ServiceClient(args.host, args.port)
    if args.watch <= 0:
        _print_dash_once(client)
        return 0
    try:
        while True:
            print(f"--- {args.host}:{args.port} ---")
            _print_dash_once(client)
            _time.sleep(args.watch)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis.lint.cli import run_from_args

    return run_from_args(args)


def _cmd_demo(args: argparse.Namespace) -> int:
    from .datasets.synth import synth_instance

    # Find a small instance that actually has an I/O regime.
    for seed in range(7, 100):
        tree = synth_instance(60, seed=seed)
        bounds = memory_bounds(tree)
        if bounds.has_io_regime:
            break
    memory = bounds.mid
    print(f"demo tree: n={tree.n}, LB={bounds.lb}, Peak={bounds.peak_incore}, M={memory}")
    for name in ("PostOrderMinIO", "OptMinMem", "RecExpand", "FullRecExpand"):
        traversal = get_algorithm(name)(tree, memory)
        validate(tree, traversal, memory)
        print(f"  {name:<16} io = {traversal.io_volume:6d}   perf = {traversal.performance(memory):.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ioschedule",
        description="Out-of-core task-tree scheduling (Marchal et al., 2017 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Resolved at parser-build time (not import time) so strategies
    # registered after import are accepted everywhere the CLI takes
    # an --algorithm, matching the service's lazy protocol validation.
    _ALL_STRATEGIES = strategy_names()

    p = sub.add_parser("info", help="print model quantities of a tree JSON file")
    p.add_argument("--tree", required=True)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("solve", help="schedule a tree with one strategy")
    p.add_argument("--tree", required=True)
    p.add_argument("--memory", type=int, required=True)
    p.add_argument("--algorithm", default="RecExpand", choices=_ALL_STRATEGIES)
    p.add_argument("--show-schedule", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("figure", help="regenerate an evaluation figure")
    p.add_argument("--id", required=True, choices=sorted(FIGURES))
    p.add_argument("--scale", default="small", choices=("tiny", "small", "paper"))
    p.add_argument("--csv", help="also write the curves as CSV")
    p.add_argument("--svg", help="also render the profile as SVG")
    p.add_argument("--max-overhead", type=float, default=None)
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("paging", help="page-level policy comparison on a tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--memory", type=int, required=True)
    p.add_argument("--algorithm", default="RecExpand", choices=_ALL_STRATEGIES)
    p.add_argument("--page-size", type=int, default=1)
    p.add_argument("--policy", action="append", help="repeatable; default: the standard four")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_paging)

    p = sub.add_parser("exact", help="exact optimum + heuristic gaps (small trees)")
    p.add_argument("--tree", required=True)
    p.add_argument("--memory", type=int, required=True)
    p.add_argument("--max-states", type=int, default=2_000_000)
    p.add_argument("--node-limit", type=int, default=24)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("parallel", help="parallel out-of-core simulation")
    p.add_argument("--tree", required=True)
    p.add_argument("--memory", type=int, required=True)
    p.add_argument("--processors", type=int, default=2)
    p.add_argument("--algorithm", default="RecExpand", choices=_ALL_STRATEGIES)
    p.add_argument("--window", type=int, default=0, help="activation window (0 = ungated)")
    p.add_argument("--bandwidth", type=float, default=0.0)
    p.add_argument("--gantt", help="write the execution timeline as SVG")
    p.set_defaults(func=_cmd_parallel)

    p = sub.add_parser("draw", help="render a tree as an SVG diagram")
    p.add_argument("--tree", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--algorithm", choices=_ALL_STRATEGIES)
    p.add_argument("--memory", type=int)
    p.add_argument("--title")
    p.set_defaults(func=_cmd_draw)

    p = sub.add_parser("report", help="run the full evaluation and save the report")
    p.add_argument("--scale", default="small", choices=("tiny", "small", "paper"))
    p.add_argument("--outdir", default="results")
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the batch engine (default: 1, in-process)",
    )
    p.add_argument(
        "--cache-dir",
        help="result-cache directory (default: <outdir>/cache)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache entirely",
    )
    p.add_argument(
        "--forest", dest="forest", action="store_true", default=True,
        help="solve shards through the forest batch kernels (default)",
    )
    p.add_argument(
        "--no-forest", dest="forest", action="store_false",
        help="solve every instance on its own tree instead",
    )
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("instance", help="run strategies on a paper instance")
    p.add_argument(
        "--name",
        required=True,
        choices=("figure_2a", "figure_2b", "figure_2c", "figure_6", "figure_7"),
    )
    p.add_argument("--k", type=int, default=4, help="parameter for the scaled families")
    p.add_argument("--algorithm", action="append")
    p.set_defaults(func=_cmd_instance)

    p = sub.add_parser(
        "serve", help="run the scheduling service (JSON + binary frames over HTTP)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8177, help="0 picks an ephemeral port")
    p.add_argument(
        "--workers", type=int, default=2,
        help="worker processes (0 = in-process threads; default: 2)",
    )
    p.add_argument(
        "--queue-limit", type=int, default=64,
        help="admission-queue capacity before 429 rejections (default: 64)",
    )
    p.add_argument(
        "--max-batch", type=int, default=16,
        help="maximum requests per micro-batch; a free worker gets the "
        "requests already queued, up to this many (default: 16)",
    )
    p.add_argument(
        "--timeout", type=float, default=60.0,
        help="default per-request deadline in seconds (default: 60)",
    )
    p.add_argument(
        "--cache-dir",
        help="result-cache directory (default: results/service-cache)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache (in-flight dedup stays on)",
    )
    p.add_argument(
        "--keepalive-timeout", type=float, default=75.0,
        help="seconds an idle keep-alive connection stays open "
             "(<= 0 closes after every response; default: 75)",
    )
    p.add_argument(
        "--max-pipeline", type=int, default=32,
        help="pipelined requests in flight per connection (default: 32)",
    )
    p.add_argument(
        "--dashboard", action="store_true",
        help="serve the live ops dashboard at /dash",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("submit", help="submit one request to a running service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8177)
    p.add_argument("--kind", default="solve", choices=("solve", "paging", "exact"))
    p.add_argument("--tree", help="tree JSON file (required unless --probe)")
    p.add_argument("--memory", type=int, help="memory bound (required unless --probe)")
    p.add_argument("--algorithm", default="RecExpand", choices=_ALL_STRATEGIES)
    p.add_argument("--show-schedule", action="store_true")
    p.add_argument("--page-size", type=int, default=1)
    p.add_argument("--policy", action="append", help="paging only; repeatable")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-states", type=int, default=2_000_000)
    p.add_argument("--node-limit", type=int, default=24)
    p.add_argument(
        "--timeout", type=float, default=0.0,
        help="per-request deadline in seconds (0 = server default)",
    )
    p.add_argument("--json", action="store_true", help="print the raw JSON envelope")
    p.add_argument(
        "--wire", default="auto", choices=("auto", "binary", "json"),
        help="submit encoding: binary frames with JSON fallback (auto, "
             "the default), frames only, or JSON only",
    )
    p.add_argument(
        "--probe", action="store_true",
        help="just check the server: print its version info and exit",
    )
    p.add_argument(
        "--trace-schedule", action="store_true",
        help="solve only: return the schedule trace (memory curve + "
             "cumulative I/O) and the per-stage timing breakdown",
    )
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser(
        "dash", help="one-shot terminal view of a running server's metrics"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8177)
    p.add_argument(
        "--watch", type=float, default=0.0,
        help="refresh every N seconds instead of printing once",
    )
    p.set_defaults(func=_cmd_dash)

    p = sub.add_parser(
        "lint",
        help="AST invariant checker: the repo's hand-audited rules as a "
             "gated lint pass (0 clean, 1 findings, 2 bad usage)",
    )
    from .analysis.lint.cli import add_lint_arguments

    add_lint_arguments(p)
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("demo", help="quick end-to-end demonstration")
    p.set_defaults(func=_cmd_demo)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Parse and dispatch; exit codes are part of the CLI contract.

    0 success · 2 bad arguments or invalid input (file missing, bad tree
    JSON, schema violation — whether caught locally or rejected by a
    server) · 1 transport/overload/internal failure talking to a server.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TreeError as exc:
        print(f"error: invalid tree: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ApiError as exc:
        # one taxonomy for every backend: the exception knows its exit
        # code (client fault → 2, transport/overload/internal → 1)
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
