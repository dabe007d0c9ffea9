"""Shared helpers of the benchmark: paths, percentiles, process probes.

Everything here is standard library only, so the benchmark can report a
clean error (and exit non-zero) in a checkout that lacks the program.
"""

from __future__ import annotations

import os
import shutil
import signal
import sys
import time
from pathlib import Path

#: the checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space of one run (removed when the run ends).
RUN_DIR = ROOT / ".perfbench_run"
#: where traced runs write their span files.
OUT_DIR = ROOT / ".perfbench_out"


class BenchmarkError(RuntimeError):
    """The benchmark could not run (missing program, dead server, ...)."""


def require_program() -> None:
    """Make ``import repro`` work from the checkout, or fail loudly."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program sources under {SRC}; nothing to measure")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> dict[str, str]:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def make_work_dir(workload: str, seed: int) -> Path:
    path = RUN_DIR / f"{workload}-s{seed}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_work_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        RUN_DIR.rmdir()  # only when no other run is using it
    except OSError:
        pass


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, the same formula as the server's histogram."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def median(values) -> float:
    return percentile(values, 0.5)


# --------------------------------------------------------------------- #
# /proc probes (Linux)
# --------------------------------------------------------------------- #


def _status_field(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of ``pid`` in MB (``VmHWM``), 0 if gone."""
    return _status_field(pid, "VmHWM") / 1024.0


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid`` (children, grandchildren, ...)."""
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after ")"
        fields = stat[stat.rfind(")") + 2:].split()
        parents.setdefault(int(fields[1]), []).append(int(entry))
    out: list[int] = []
    frontier = [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        out.extend(children)
        frontier.extend(children)
    return out


def alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            stat = fh.read()
    except OSError:
        return False
    return stat[stat.rfind(")") + 2:].split()[0] not in ("Z", "X")


def reap(pids: list[int], timeout: float = 10.0) -> None:
    """Wait for ``pids`` to end; kill whatever outlives ``timeout``."""
    deadline = time.monotonic() + timeout
    while any(alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.02)
    for pid in pids:
        if alive(pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
    deadline = time.monotonic() + 5.0
    while any(alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.02)
