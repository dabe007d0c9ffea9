"""Smoke tests: the runnable examples must stay runnable.

Runs the fast examples as subprocesses (fresh interpreter, public API
only — exactly what a user does).  The slower studies (figure_gallery,
parallel_window_study, exact_gap_study, perf_profile_study) are covered
by their underlying modules' tests and excluded here to keep the suite
quick; run them directly or via `pytest -m examples_slow` if added.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "counterexamples.py",
    "solver_pipeline.py",
    "paging_policies.py",
    "out_of_core_execution.py",
]


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_example_runs_clean(name):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "example produced no output"


def test_every_example_file_has_a_docstring_and_main():
    for path in sorted(EXAMPLES.glob("*.py")):
        text = path.read_text()
        assert '"""' in text.split("\n", 3)[1] or text.startswith('#!'), path
        assert '__main__' in text, f"{path} is not runnable"
