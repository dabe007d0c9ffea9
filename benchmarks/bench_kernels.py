"""Kernel benchmark: the list cores on flat arrays vs the object references.

What must hold (the kernel layer's acceptance bar):

* on a 10^5-node instance the list cores on an ``ArrayTree`` are
  at least ``KERNEL_SPEEDUP_MIN`` times faster than the object
  references over the gated suite (construction, both best postorders,
  the FiF simulation) — with byte-identical results, asserted here on
  every call;
* a 10^6-node chain (depth 10^6) solves end-to-end on the list cores
  without recursion tricks, in seconds.

The object references are the cross-validation oracles, called by name
(``postorder._best_postorder``, ``simulator._simulate_fif_object``):
per-node structures throughout.  Liu's solver has one scalar
implementation (:func:`repro.core.kernels.liu_combine`) and no object
twin, so ``opt_min_mem`` is timed on the list core alone and reported
below the gated TOTAL; its peak is checked against the rope-free
:func:`~repro.core.kernels.liu_peak_core` and against the FiF peak of
its own schedule.

Writes ``benchmarks/out/kernel_speedup.txt`` with the per-kernel
trajectory so EXPERIMENTS.md can quote it.
"""

from __future__ import annotations

import os
import time

from repro.algorithms.liu import min_peak_memory, opt_min_mem
from repro.algorithms.postorder import (
    _best_postorder,
    postorder_min_io,
    postorder_min_mem,
)
from repro.core.arraytree import ArrayTree
from repro.core.simulator import (
    _simulate_fif_object,
    schedule_peak_memory,
    simulate_fif,
)
from repro.core.tree import TaskTree
from repro.datasets.synth import huge_instance, synth_instance

N_HEADLINE = 100_000
N_SMALL = 10_000
#: the local acceptance bar: summed object-reference time over summed
#: list-core time of the gated rows (build, both best postorders, FiF)
#: at n = 10^5; ``opt_min_mem`` has no object twin and is not gated.
#: Eight runs on a 2-vCPU container read 1.91-2.84x (median 2.47x), so
#: 1.75 passes every one of them.  Shared CI runners time noisily, so
#: the CI job lowers the *gate* via KERNEL_SPEEDUP_MIN while still
#: publishing the measured trajectory as an artifact.
MIN_SUITE_SPEEDUP = float(os.environ.get("KERNEL_SPEEDUP_MIN", "1.75"))


def _best_of(f, repeats=5):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = f()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _suite(n: int, seed: int = 1):
    """Time every kernel on both paths; assert exact result equality.

    Returns the gated ``(name, object, array)`` rows and the list-core
    time of ``opt_min_mem``.
    """
    base = synth_instance(n, seed=seed)
    parents, weights = list(base.parents), list(base.weights)
    rows = []

    t_obj, obj = _best_of(lambda: TaskTree(parents, weights))
    t_arr, arr = _best_of(lambda: ArrayTree(parents, weights))
    rows.append(("build", t_obj, t_arr))

    t_obj, mm_obj = _best_of(lambda: _best_postorder(obj, None))
    t_arr, mm_arr = _best_of(lambda: postorder_min_mem(arr))
    assert mm_obj == mm_arr
    rows.append(("postorder_min_mem", t_obj, t_arr))

    lb = obj.min_feasible_memory()
    memory = max(lb, (lb + mm_obj.peak_memory) // 2)
    t_obj, io_obj = _best_of(lambda: _best_postorder(obj, memory))
    t_arr, io_arr = _best_of(lambda: postorder_min_io(arr, memory))
    assert io_obj == io_arr
    rows.append(("postorder_min_io", t_obj, t_arr))

    t_liu, (liu_schedule, liu_peak) = _best_of(lambda: opt_min_mem(arr))
    assert liu_peak == min_peak_memory(obj) <= mm_obj.peak_memory
    assert schedule_peak_memory(arr, liu_schedule) == liu_peak

    t_obj, f_obj = _best_of(
        lambda: _simulate_fif_object(obj, io_obj.schedule, memory, False)
    )
    t_arr, f_arr = _best_of(lambda: simulate_fif(arr, io_arr.schedule, memory))
    assert dict(f_obj.io) == dict(f_arr.io)
    assert f_obj.io_volume == f_arr.io_volume
    assert io_obj.predicted_io == f_arr.io_volume
    rows.append(("simulate_fif", t_obj, t_arr))
    return rows, t_liu


def _render(n, rows, t_liu):
    lines = [f"n = {n} (uniform random binary tree, weights in [1, 100])"]
    lines.append(f"{'kernel':<20} {'object':>9} {'array':>9} {'speedup':>8}")
    tot_obj = tot_arr = 0.0
    for name, t_obj, t_arr in rows:
        tot_obj += t_obj
        tot_arr += t_arr
        lines.append(f"{name:<20} {t_obj:>8.3f}s {t_arr:>8.3f}s {t_obj/t_arr:>7.2f}x")
    lines.append(
        f"{'TOTAL':<20} {tot_obj:>8.3f}s {tot_arr:>8.3f}s "
        f"{tot_obj/tot_arr:>7.2f}x"
    )
    lines.append(
        f"{'opt_min_mem':<20} {'-':>9} {t_liu:>8.3f}s  (list core only, not in TOTAL)"
    )
    return "\n".join(lines), tot_obj / tot_arr


def test_kernel_speedup_trajectory(emit):
    report = []
    speedup_headline = None
    for n in (N_SMALL, N_HEADLINE):
        text, speedup = _render(n, *_suite(n))
        report.append(text)
        if n == N_HEADLINE:
            speedup_headline = speedup

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
    assert speedup_headline is not None and speedup_headline >= MIN_SUITE_SPEEDUP, (
        f"list cores only {speedup_headline:.2f}x over the kernel suite at "
        f"n={N_HEADLINE}; the bar is {MIN_SUITE_SPEEDUP}x"
    )
    assert chain_seconds < 120.0
