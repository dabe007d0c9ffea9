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
``RecExpandResult`` counters.  It also pins all four victim rules on a
subset, weights beyond int64, the paper's figure instances, and the
``InfeasibleSchedule`` / ``ExpansionLimitExceeded`` messages.

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


def _solve(tree, memory: int, strategy: str, **options) -> dict[str, Any]:
    from repro.algorithms.rec_expand import full_rec_expand
    from repro.experiments.registry import get_algorithm

    if strategy in ("RecExpand", "FullRecExpand"):
        if strategy == "RecExpand":
            options.setdefault("iteration_cap", 2)
        res = full_rec_expand(tree, memory, **options)
        traversal = res.traversal
        extra = {
            "expanded_io": res.expanded_io,
            "residual_io": res.residual_io,
            "expansions": res.expansions,
            "iterations": res.iterations,
            "expanded_tree_size": res.expanded_tree_size,
        }
        assert res.io_volume == traversal.io_volume
    else:
        traversal = get_algorithm(strategy)(tree, memory)
        extra = {}
    return {
        "io_volume": traversal.io_volume,
        "schedule": _digest(traversal.schedule),
        "io": _digest(traversal.io),
        **extra,
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
    from repro.algorithms.rec_expand import VICTIM_RULES, full_rec_expand
    from repro.core.simulator import simulate_fif
    from repro.datasets import instances as paper

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
        errors[label + "/fif-object"] = _error(
            lambda: simulate_fif(tree, schedule, lb - 1, engine="object")
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
