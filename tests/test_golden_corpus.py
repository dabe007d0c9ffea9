"""The solvers still give the answers frozen in ``tests/golden/corpus.json``.

The corpus was written by ``scripts/golden_corpus.py`` before the
RecExpand family and the small-tree dispatch moved onto the list cores;
every record (I/O volume, schedule and I/O digests, RecExpand counters,
error messages) must come out identical.  Regenerate it only for an
intended change of results.
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


@pytest.mark.parametrize("section", ["grid", "victims", "huge", "figures", "errors"])
def test_section_matches_frozen_corpus(corpora, section):
    frozen, fresh = corpora
    assert len(fresh[section]) == len(frozen[section])
    if isinstance(frozen[section], dict):
        assert fresh[section] == frozen[section]
        return
    for want, got in zip(frozen[section], fresh[section]):
        assert got == want, want.get("label")


def test_corpus_stays_small():
    assert (ROOT / "tests" / "golden" / "corpus.json").stat().st_size < 300_000
