#!/usr/bin/env python
"""Freeze the solvers' answers into the golden corpus under tests/golden/.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/golden_corpus.py            # rewrite
    PYTHONPATH=src python scripts/golden_corpus.py --check    # compare only

The corpus pins what the four paper strategies answer on the
cross-validation families of ``tests/test_kernel_crossval.py`` (same
``BASE_SEED`` instances, a prefix of every size band, each on its memory
grid): the I/O volume plus sha256 digests of the schedule and of the
I/O function, and for ``RecExpand``/``FullRecExpand`` the
``RecExpandResult`` counters.  It also pins all four victim rules and
the while-loop caps 0, 1 and 4 on a subset, weights beyond int64, the paper's figure instances, and the
``InfeasibleSchedule`` / ``ExpansionLimitExceeded`` messages.  On the
same subset it pins a digest of each strategy's schedule curve
(:func:`repro.obs.schedule_trace`) and of the traced FiF steps of its
schedule, and every child-ordering key of
:func:`~repro.algorithms.postorder.postorder_with_child_key`.  For every
grid tree it pins both best postorders: ``PostOrderMinMem``'s schedule
and per-subtree storage ``S_i``, and at each grid memory
``PostOrderMinIO``'s storage and predicted ``V_root``.

``tests/test_golden_corpus.py`` recomputes :func:`compute_corpus` and
compares it with the committed file, so a solver rewrite that changes
any answer fails there.  Rewrite the file only for an intended change
of results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
from dataclasses import astuple
from typing import Any

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "golden" / "corpus.json"

#: instances taken from the front of each ``SIZE_BANDS`` band
BAND_PREFIX = (6, 3, 2)
STRATEGIES = ("OptMinMem", "PostOrderMinIO", "RecExpand", "FullRecExpand")
#: multiplier of the beyond-int64 instances' weights
HUGE = 2**70


def _digest(values) -> str:
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()


def _crossval():
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from tests import test_kernel_crossval

    return test_kernel_crossval


def instances():
    """``(label, tree)`` for the banded cross-validation instances."""
    import numpy as np

    cv = _crossval()
    out = []
    for family_index, family in enumerate(cv.FAMILIES):
        for band_index, (_count, (lo, hi)) in enumerate(cv.SIZE_BANDS):
            for k in range(BAND_PREFIX[band_index]):
                seed = cv.BASE_SEED + family_index * 10_000 + band_index * 100 + k
                rng = np.random.default_rng(seed)
                n = int(rng.integers(lo, hi + 1))
                out.append((f"{family}/{band_index}/{k}", cv._make_tree(family, n, rng)))
    return out


def _memories(tree) -> list[int]:
    lb = tree.min_feasible_memory()
    return [m for m in _crossval()._memory_grid(tree) if m >= lb]


def _run(tree, memory: int, strategy: str, **options):
    """``(traversal, RecExpand counters)`` of one strategy's solve."""
    from repro.algorithms.rec_expand import full_rec_expand
    from repro.experiments.registry import get_algorithm

    if strategy in ("RecExpand", "FullRecExpand"):
        if strategy == "RecExpand":
            options.setdefault("iteration_cap", 2)
        res = full_rec_expand(tree, memory, **options)
        assert res.io_volume == res.traversal.io_volume
        return res.traversal, {
            "expanded_io": res.expanded_io,
            "residual_io": res.residual_io,
            "expansions": res.expansions,
            "iterations": res.iterations,
            "expanded_tree_size": res.expanded_tree_size,
        }
    return get_algorithm(strategy)(tree, memory), {}


def _solve(tree, memory: int, strategy: str, **options) -> dict[str, Any]:
    traversal, extra = _run(tree, memory, strategy, **options)
    return {
        "io_volume": traversal.io_volume,
        "schedule": _digest(traversal.schedule),
        "io": _digest(traversal.io),
        **extra,
    }


def _postorder_record(label: str, tree) -> dict[str, Any]:
    from repro.algorithms.postorder import postorder_min_io, postorder_min_mem

    minmem = postorder_min_mem(tree)
    min_io = {}
    for m in _memories(tree):
        result = postorder_min_io(tree, m)
        min_io[str(m)] = [_digest(result.storage), result.predicted_io]
    return {
        "label": label,
        "min_mem": _digest(list(minmem.schedule) + list(minmem.storage)),
        "min_io": min_io,
    }


def _grid_record(label: str, tree) -> dict[str, Any]:
    return {
        "label": label,
        "n": tree.n,
        "tree": _digest(list(tree.parents) + list(tree.weights)),
        "runs": {
            str(m): {s: _solve(tree, m, s) for s in STRATEGIES}
            for m in _memories(tree)
        },
    }


def _huge(tree):
    return tree.with_weights([w * HUGE + w for w in tree.weights])


def _error(fn) -> str:
    try:
        fn()
    except Exception as exc:  # the message is the record
        return f"{type(exc).__name__}: {exc}"
    return "no error"


def compute_corpus() -> dict[str, Any]:
    """Every golden record, recomputed with the code on ``sys.path``."""
    from repro.algorithms.liu import opt_min_mem
    from repro.algorithms.postorder import CHILD_ORDER_KEYS, postorder_with_child_key
    from repro.algorithms.rec_expand import VICTIM_RULES, full_rec_expand
    from repro.core.simulator import simulate_fif
    from repro.datasets import instances as paper
    from repro.obs import schedule_trace

    cases = instances()
    grid = [_grid_record(label, tree) for label, tree in cases]

    # every victim rule, both variants, at each subset tree's mid memory
    subset = [(label, tree) for label, tree in cases if label.endswith("/1/0")]
    victims = []
    for label, tree in subset:
        memory = _memories(tree)[len(_memories(tree)) // 2]
        for rule in sorted(VICTIM_RULES):
            for strategy in ("RecExpand", "FullRecExpand"):
                victims.append({
                    "label": label, "memory": memory, "rule": rule,
                    "strategy": strategy,
                    **_solve(tree, memory, strategy, victim_rule=rule),
                })

    # FullRecExpand's capped variants (residual I/O left to FiF), at each
    # subset tree's lowest and mid memory
    caps = []
    for label, tree in subset:
        memories = _memories(tree)
        for memory in (memories[0], memories[len(memories) // 2]):
            for cap in (0, 1, 4):
                caps.append({
                    "label": label, "memory": memory, "cap": cap,
                    **_solve(tree, memory, "FullRecExpand", iteration_cap=cap),
                })

    postorders = [_postorder_record(label, tree) for label, tree in cases]

    # every child-ordering key of the postorder ablation, at each subset
    # tree's mid memory
    child_keys = []
    for label, tree in subset:
        memory = _memories(tree)[len(_memories(tree)) // 2]
        for key in sorted(CHILD_ORDER_KEYS):
            result = postorder_with_child_key(tree, memory, key)
            child_keys.append({
                "label": label, "memory": memory, "key": key,
                "schedule": _digest(result.schedule),
                "storage": _digest(result.storage),
                "predicted_io": result.predicted_io,
            })

    # each strategy's schedule curve, and the traced FiF steps of its
    # schedule, at each subset tree's mid memory
    schedule_traces = []
    fif_steps = []
    for label, tree in subset:
        memory = _memories(tree)[len(_memories(tree)) // 2]
        for strategy in STRATEGIES:
            traversal, _ = _run(tree, memory, strategy)
            trace = schedule_trace(
                tree.parents, tree.weights, traversal.schedule, traversal.io
            )
            schedule_traces.append({
                "label": label, "memory": memory, "strategy": strategy,
                "trace": hashlib.sha256(dumps(trace).encode()).hexdigest(),
            })
            steps = simulate_fif(tree, traversal.schedule, memory, trace=True).steps
            fif_steps.append({
                "label": label, "memory": memory, "strategy": strategy,
                "steps": hashlib.sha256(
                    repr([astuple(step) for step in steps]).encode()
                ).hexdigest(),
            })

    huge = [
        _grid_record(label + "/huge", _huge(tree))
        for label, tree in cases if label.endswith("/0/1")
    ]

    figures = []
    for name, inst in (
        ("figure_2a", paper.figure_2a()),
        ("figure_2a/M20x2", paper.figure_2a(memory=20, extensions=2)),
        ("figure_2b", paper.figure_2b()),
        ("figure_2c/k2", paper.figure_2c(2)),
        ("figure_2c/k3", paper.figure_2c(3)),
        ("figure_6", paper.figure_6()),
        ("figure_7", paper.figure_7()),
    ):
        figures.append({
            "label": name,
            "memory": inst.memory,
            "runs": {s: _solve(inst.tree, inst.memory, s) for s in STRATEGIES},
        })

    errors = {}
    for label, tree in cases:
        if not label.endswith("/2/0"):
            continue
        lb = tree.min_feasible_memory()
        if lb <= 1:
            continue
        schedule = opt_min_mem(tree)[0]
        errors[label + "/fif"] = _error(
            lambda: simulate_fif(tree, schedule, lb - 1)
        )
        # the traced run (its key dates from the object loop it used to take)
        errors[label + "/fif-object"] = _error(
            lambda: simulate_fif(tree, schedule, lb - 1, trace=True)
        )
        errors[label + "/below-lb"] = _error(
            lambda: full_rec_expand(tree, lb - 1)
        )
        for budget in (0, 1):
            errors[f"{label}/budget{budget}"] = _error(
                lambda: full_rec_expand(tree, lb, max_total_iterations=budget)
            )
    return {
        "grid": grid,
        "victims": victims,
        "caps": caps,
        "schedule_traces": schedule_traces,
        "fif_steps": fif_steps,
        "postorders": postorders,
        "child_keys": child_keys,
        "huge": huge,
        "figures": figures,
        "errors": errors,
    }


def dumps(corpus: dict[str, Any]) -> str:
    return json.dumps(corpus, sort_keys=True, separators=(",", ":")) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed corpus; write nothing")
    args = parser.parse_args(argv)
    text = dumps(compute_corpus())
    if args.check:
        same = CORPUS.read_text(encoding="utf-8") == text
        print("golden corpus: " + ("unchanged" if same else "DIFFERS"))
        return 0 if same else 1
    CORPUS.parent.mkdir(parents=True, exist_ok=True)
    CORPUS.write_text(text, encoding="utf-8")
    print(f"wrote {CORPUS.relative_to(ROOT)} ({len(text)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
