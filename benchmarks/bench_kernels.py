"""Kernel benchmark: the list cores on flat arrays, against a tree build.

What must hold (the kernel layer's acceptance bar):

* on a 10^5-node instance, the summed time of the gated list cores on
  an ``ArrayTree`` (both best postorders and the FiF simulation) is at
  most ``KERNEL_CORE_RATIO_MAX`` times the time of building the
  ``TaskTree`` of the same columns, timed in the same run — every
  answer checked against the paper's invariants on the way;
* a 10^6-node chain (depth 10^6) solves end-to-end on the list cores
  without recursion tricks, in seconds.

The ``TaskTree`` build is plain per-node Python of a stable size, so
the ratio cancels the speed of the machine and flags a slowdown of the
cores.  Rows run in interleaved rounds (every row once per round, the
garbage collector off while a row runs), and the gate reads the median
over rounds of each round's ratio, so a slow phase of a shared host
hits both sides of it.  ``opt_min_mem`` (Liu's
solver) and the ``ArrayTree`` build are reported, not gated.

Writes ``benchmarks/out/kernel_speedup.txt`` with the per-kernel
medians so EXPERIMENTS.md can quote them.
"""

from __future__ import annotations

import gc
import os
import statistics
import time

from repro.algorithms.liu import min_peak_memory, opt_min_mem
from repro.algorithms.postorder import postorder_min_io, postorder_min_mem
from repro.core.arraytree import ArrayTree
from repro.core.simulator import schedule_peak_memory, simulate_fif
from repro.core.traversal import is_postorder
from repro.core.tree import TaskTree
from repro.datasets.synth import huge_instance, synth_instance

N_HEADLINE = 100_000
N_SMALL = 10_000
#: rounds per run; every row is timed once per round
ROUNDS = 7
#: the gated rows, summed and divided by the TaskTree build
GATED = ("postorder_min_mem", "postorder_min_io", "simulate_fif")
#: the local acceptance bar on that ratio at n = 10^5.  Ten runs at the
#: parent of this gate on a 2-vCPU container read 2.39-3.31 (median
#: 2.74).  In the same runs the old gate (object references over list
#: cores >= 1.75) flagged any core slowdown that would lift this ratio
#: above 3.54-4.14, so 3.5 passes every run and flags at least what
#: 1.75 flagged.  Shared CI runners time noisily, so the CI job raises
#: the *bar* via KERNEL_CORE_RATIO_MAX while still publishing the
#: medians as an artifact.
MAX_CORE_RATIO = float(os.environ.get("KERNEL_CORE_RATIO_MAX", "3.5"))


def _timed(run) -> float:
    """One call's seconds, with the collector run before and off during
    it (as ``timeit`` does), so no row pays for another's garbage."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        run()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _suite(n: int, seed: int = 1):
    """Time every row in interleaved rounds; check every answer.

    Returns the per-row medians and the median over rounds of the
    gated cores' summed time over the ``TaskTree`` build's.
    """
    base = synth_instance(n, seed=seed)
    parents, weights = list(base.parents), list(base.weights)
    arr = ArrayTree(parents, weights)
    minmem = postorder_min_mem(arr)
    lb = arr.min_feasible_memory()
    memory = max(lb, (lb + minmem.peak_memory) // 2)
    min_io = postorder_min_io(arr, memory)

    assert is_postorder(arr, minmem.schedule) and is_postorder(arr, min_io.schedule)
    assert schedule_peak_memory(arr, minmem.schedule) == minmem.peak_memory
    assert simulate_fif(arr, min_io.schedule, memory).io_volume == min_io.predicted_io
    liu_schedule, liu_peak = opt_min_mem(arr)
    assert liu_peak == min_peak_memory(arr) <= minmem.peak_memory
    assert schedule_peak_memory(arr, liu_schedule) == liu_peak

    rows = {
        "TaskTree build": lambda: TaskTree(parents, weights),
        "ArrayTree build": lambda: ArrayTree(parents, weights),
        "postorder_min_mem": lambda: postorder_min_mem(arr),
        "postorder_min_io": lambda: postorder_min_io(arr, memory),
        "simulate_fif": lambda: simulate_fif(arr, min_io.schedule, memory),
        "opt_min_mem": lambda: opt_min_mem(arr),
    }
    times: dict[str, list[float]] = {name: [] for name in rows}
    for _ in range(ROUNDS):
        for name, run in rows.items():
            times[name].append(_timed(run))
    ratios = [
        sum(times[name][r] for name in GATED) / times["TaskTree build"][r]
        for r in range(ROUNDS)
    ]
    medians = {name: statistics.median(ts) for name, ts in times.items()}
    return medians, statistics.median(ratios)


def _render(n, medians, ratio):
    build = medians["TaskTree build"]
    lines = [
        f"n = {n} (uniform random binary tree, weights in [1, 100]), "
        f"median of {ROUNDS} interleaved rounds"
    ]
    lines.append(f"{'row':<20} {'median':>9} {'/ build':>8}")
    for name, seconds in medians.items():
        mark = "  (gated)" if name in GATED else ""
        lines.append(f"{name:<20} {seconds:>8.3f}s {seconds / build:>7.2f}x{mark}")
    lines.append(f"{'gated cores / build':<20} {'':>9} {ratio:>7.2f}x  (median over rounds)")
    return "\n".join(lines)


def test_kernel_core_ratio(emit):
    report = []
    headline = None
    for n in (N_SMALL, N_HEADLINE):
        medians, ratio = _suite(n)
        report.append(_render(n, medians, ratio))
        if n == N_HEADLINE:
            headline = ratio

    # Million-node chain: the shape no recursive/object pipeline survives.
    t0 = time.perf_counter()
    chain = huge_instance("chain", 1_000_000, seed=1)
    peak = min_peak_memory(chain)
    memory = max(chain.min_feasible_memory(), peak - 1)
    result = postorder_min_io(chain, memory)
    sim = simulate_fif(chain, result.schedule, memory)
    assert result.predicted_io == sim.io_volume
    chain_seconds = time.perf_counter() - t0
    report.append(
        f"million-node chain (depth 10^6): generate + min_peak + "
        f"postorder_min_io + FiF = {chain_seconds:.1f}s on the list cores"
    )

    emit("kernel_speedup", "\n\n".join(report))
    assert headline is not None and headline <= MAX_CORE_RATIO, (
        f"the gated list cores took {headline:.2f}x the TaskTree build at "
        f"n={N_HEADLINE}; the bar is {MAX_CORE_RATIO}x"
    )
    assert chain_seconds < 120.0
