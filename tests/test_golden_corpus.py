"""The solvers still give the answers frozen in ``tests/golden/corpus.json``.

The corpus was written by ``scripts/golden_corpus.py`` before the
RecExpand family and the small-tree dispatch moved onto the list cores;
every record (I/O volume, schedule and I/O digests, RecExpand counters,
schedule-curve and traced-FiF digests, both best postorders and every
child-ordering key, error messages) must come out identical.
Regenerate it only for an intended change of results.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _generator():
    spec = importlib.util.spec_from_file_location(
        "golden_corpus", ROOT / "scripts" / "golden_corpus.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def corpora():
    gen = _generator()
    frozen = json.loads(gen.CORPUS.read_text(encoding="utf-8"))
    return frozen, json.loads(gen.dumps(gen.compute_corpus()))


@pytest.mark.parametrize("section", [
    "grid", "victims", "caps", "schedule_traces", "huge", "figures", "errors",
    "postorders", "child_keys", "fif_steps",
])
def test_section_matches_frozen_corpus(corpora, section):
    frozen, fresh = corpora
    assert len(fresh[section]) == len(frozen[section])
    if isinstance(frozen[section], dict):
        assert fresh[section] == frozen[section]
        return
    for want, got in zip(frozen[section], fresh[section]):
        assert got == want, want.get("label")


def test_corpus_stays_small():
    assert (ROOT / "tests" / "golden" / "corpus.json").stat().st_size < 350_000


def test_worker_micro_batches_give_the_frozen_answers():
    """The service worker's forest path against the frozen corpus.

    Every ``/1/0`` tree of the grid section is solved at each of its
    grid memories under the four paper strategies through
    :func:`repro.service.pool.execute_many`, in micro-batches that mix
    trees, strategies and memories; each answer's I/O volume and
    schedule and I/O digests must be the frozen ones.
    """
    from repro.api import SolveRequest
    from repro.service.pool import execute_many

    gen = _generator()
    frozen = json.loads(gen.CORPUS.read_text(encoding="utf-8"))
    trees = dict(gen.instances())
    requests, wanted = [], []
    for record in frozen["grid"]:
        if not record["label"].endswith("/1/0"):
            continue
        tree = trees[record["label"]]
        for memory, runs in record["runs"].items():
            for strategy in gen.STRATEGIES:
                requests.append(SolveRequest(
                    parents=tree.parents, weights=tree.weights,
                    memory=int(memory), algorithm=strategy,
                ))
                wanted.append((record["label"], tree.n, runs[strategy]))
    assert len({label for label, _n, _run in wanted}) == 8
    envelopes = []
    for start in range(0, len(requests), 5):
        envelopes += execute_many(requests[start : start + 5], True)
    for envelope, (label, n, want) in zip(envelopes, wanted):
        assert envelope["ok"] is True, label
        result = envelope["result"]
        io = [result["io"].get(str(v), 0) for v in range(n)]
        got = {
            "io_volume": result["io_volume"],
            "schedule": gen._digest(result["schedule"]),
            "io": gen._digest(io),
        }
        assert got == {k: want[k] for k in got}, (label, result["algorithm"])
