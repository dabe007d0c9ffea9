"""Smoke tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.datasets.instances import figure_2b


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(figure_2b().tree.to_dict()))
    return str(path)


class TestInfo:
    def test_prints_bounds(self, tree_file, capsys):
        assert main(["info", "--tree", tree_file]) == 0
        out = capsys.readouterr().out
        assert "LB (max wbar)   : 6" in out
        assert "Peak_incore     : 8" in out


class TestSolve:
    def test_solve_reports_io(self, tree_file, capsys):
        assert (
            main(
                [
                    "solve",
                    "--tree",
                    tree_file,
                    "--memory",
                    "6",
                    "--algorithm",
                    "FullRecExpand",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "io volume   : 3" in out

    def test_show_schedule(self, tree_file, capsys):
        main(
            [
                "solve",
                "--tree",
                tree_file,
                "--memory",
                "7",
                "--algorithm",
                "PostOrderMinIO",
                "--show-schedule",
            ]
        )
        out = capsys.readouterr().out
        assert "schedule    :" in out

    def test_unknown_algorithm_rejected(self, tree_file):
        with pytest.raises(SystemExit):
            main(["solve", "--tree", tree_file, "--memory", "6", "--algorithm", "Nope"])

    def test_offline_solve_is_not_wire_capped(self, tmp_path, capsys):
        """MAX_NODES protects the service; offline solve must take huge trees."""
        from repro.api import MAX_NODES, ProtocolError, parse_request

        n = MAX_NODES + 1
        tree = {"parents": [-1] + list(range(n - 1)), "weights": [1] * n}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(tree))
        assert (
            main(
                [
                    "solve", "--tree", str(path), "--memory", "4",
                    "--algorithm", "PostOrderMinIO",
                ]
            )
            == 0
        )
        assert "io volume" in capsys.readouterr().out
        # ... while the wire path keeps rejecting the same tree
        with pytest.raises(ProtocolError) as err:
            parse_request({"kind": "solve", "tree": tree, "memory": 4})
        assert err.value.code == "payload_too_large"

    def test_offline_solve_takes_beyond_int64_weights(self, tmp_path, capsys):
        """Huge weights (object engine) and >10^15 memory bounds still solve."""
        big = 2**70
        path = tmp_path / "huge.json"
        path.write_text(
            json.dumps({"parents": [-1, 0, 0], "weights": [big, big, big]})
        )
        assert (
            main(
                [
                    "solve", "--tree", str(path), "--memory", str(3 * big),
                    "--algorithm", "PostOrderMinIO",
                ]
            )
            == 0
        )
        assert "io volume   : 0" in capsys.readouterr().out


class TestInstance:
    def test_figure_2b(self, capsys):
        assert main(["instance", "--name", "figure_2b"]) == 0
        out = capsys.readouterr().out
        assert "figure_2b" in out
        assert "paper witness" in out

    def test_figure_2c_with_k(self, capsys):
        assert main(["instance", "--name", "figure_2c", "--k", "2"]) == 0
        assert "k=2" in capsys.readouterr().out

    def test_figure_2a_with_extensions(self, capsys):
        assert main(["instance", "--name", "figure_2a", "--k", "1"]) == 0
        assert "ext=1" in capsys.readouterr().out

    def test_single_algorithm_filter(self, capsys):
        main(["instance", "--name", "figure_7", "--algorithm", "PostOrderMinIO"])
        out = capsys.readouterr().out
        assert "PostOrderMinIO" in out
        assert "OptMinMem" not in out


class TestFigure:
    def test_tiny_figure(self, capsys, monkeypatch):
        assert main(["figure", "--id", "fig4", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "RecExpand" in out
        assert "overhead" in out

    def test_csv_export(self, tmp_path, capsys):
        csv = tmp_path / "out.csv"
        assert main(["figure", "--id", "fig10", "--scale", "tiny", "--csv", str(csv)]) == 0
        assert csv.read_text().startswith("threshold,")


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "RecExpand" in out


class TestPaging:
    def test_policy_table(self, tree_file, capsys):
        assert main(["paging", "--tree", tree_file, "--memory", "6"]) == 0
        out = capsys.readouterr().out
        assert "belady" in out and "pessimal" in out

    def test_page_size_and_policy_filter(self, tree_file, capsys):
        assert (
            main(
                [
                    "paging", "--tree", tree_file, "--memory", "8",
                    "--page-size", "2", "--policy", "belady",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "page size 2" in out
        assert "lru" not in out


class TestExact:
    def test_exact_reports_optimum_and_gaps(self, tree_file, capsys):
        assert main(["exact", "--tree", tree_file, "--memory", "6"]) == 0
        out = capsys.readouterr().out
        assert "io=3 [optimal]" in out
        assert "gap" in out


class TestParallel:
    def test_plain_parallel(self, tree_file, capsys):
        assert (
            main(["parallel", "--tree", tree_file, "--memory", "8", "--processors", "2"])
            == 0
        )
        out = capsys.readouterr().out
        assert "makespan" in out and "utilisation" in out

    def test_windowed(self, tree_file, capsys):
        assert (
            main(
                [
                    "parallel", "--tree", tree_file, "--memory", "8",
                    "--processors", "2", "--window", "1",
                ]
            )
            == 0
        )
        assert "window : 1" in capsys.readouterr().out


class TestDraw:
    def test_plain_tree(self, tree_file, tmp_path, capsys):
        out_svg = tmp_path / "tree.svg"
        assert main(["draw", "--tree", tree_file, "--out", str(out_svg)]) == 0
        assert out_svg.read_text().startswith("<svg")

    def test_annotated_tree(self, tree_file, tmp_path):
        out_svg = tmp_path / "tree.svg"
        assert (
            main(
                [
                    "draw", "--tree", tree_file, "--out", str(out_svg),
                    "--algorithm", "RecExpand", "--memory", "6",
                    "--title", "fig2b",
                ]
            )
            == 0
        )
        svg = out_svg.read_text()
        assert "fig2b" in svg and "#1" in svg


class TestSvgFigure:
    def test_figure_svg_export(self, tmp_path, capsys):
        svg = tmp_path / "fig.svg"
        assert (
            main(["figure", "--id", "fig10", "--scale", "tiny", "--svg", str(svg)]) == 0
        )
        assert svg.read_text().startswith("<svg")


class TestReport:
    def test_tiny_report(self, tmp_path, capsys):
        assert main(["report", "--scale", "tiny", "--outdir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "counterexamples" in out
        report = (tmp_path / "experiments_tiny.json").read_text()
        assert '"fig4"' in report


class TestGantt:
    def test_parallel_gantt_export(self, tree_file, tmp_path):
        out_svg = tmp_path / "gantt.svg"
        assert (
            main(
                [
                    "parallel", "--tree", tree_file, "--memory", "8",
                    "--processors", "2", "--gantt", str(out_svg),
                ]
            )
            == 0
        )
        assert out_svg.read_text().startswith("<svg")


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        from repro import __version__

        assert __version__ in capsys.readouterr().out


class TestExitCodes:
    """Bad arguments exit 2 (never a traceback), for every subcommand."""

    def test_missing_tree_file(self, capsys):
        assert main(["info", "--tree", "/no/such/tree.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_tree_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", "--tree", str(path), "--memory", "6"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_tree_structure(self, tmp_path, capsys):
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps({"parents": [1, 0], "weights": [1, 1]}))
        assert main(["exact", "--tree", str(path), "--memory", "6"]) == 2
        assert "invalid tree" in capsys.readouterr().err

    def test_unknown_instance_name_is_parse_error(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["instance", "--name", "figure_999"])
        assert exit_info.value.code == 2

    def test_submit_to_dead_server_exits_one(self, tree_file, capsys):
        # nothing listens on port 1; the transport failure must exit 1
        assert (
            main(
                [
                    "submit", "--host", "127.0.0.1", "--port", "1",
                    "--tree", tree_file, "--memory", "6",
                ]
            )
            == 1
        )
        assert "error:" in capsys.readouterr().err

    def test_cache_dir_collision_still_exits_two(self, tmp_path, capsys):
        collision = tmp_path / "not-a-dir"
        collision.write_text("occupied")
        assert (
            main(
                [
                    "report", "--scale", "tiny", "--outdir", str(tmp_path),
                    "--cache-dir", str(collision),
                ]
            )
            == 2
        )


class TestLazyAlgorithmChoices:
    def test_strategies_registered_after_import_are_accepted(self):
        from repro.cli import build_parser
        from repro.experiments.registry import ALGORITHMS, register_algorithm

        name = "TestLateRegistered"
        register_algorithm(name, lambda tree, memory: None)
        try:
            args = build_parser().parse_args(
                ["solve", "--tree", "x.json", "--memory", "1", "--algorithm", name]
            )
            assert args.algorithm == name
        finally:
            ALGORITHMS.pop(name, None)


class TestStartupImports:
    def test_cli_and_server_imports_leave_scipy_unloaded(self):
        """scipy is imported where it is used, never at start-up."""
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.cli, repro.service.server; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
            ],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "[]"


def _children(pid: int) -> set[int]:
    import pathlib

    out: set[int] = set()
    for task in pathlib.Path(f"/proc/{pid}/task").iterdir():
        out.update(int(c) for c in (task / "children").read_text().split())
    return out


def _alive(pid: int) -> bool:
    import pathlib

    try:
        status = pathlib.Path(f"/proc/{pid}/status").read_text()
    except FileNotFoundError:
        return False
    return "\nState:\tZ" not in status  # an exited, unreaped child is gone


@pytest.mark.skipif(
    not __import__("pathlib").Path("/proc/self/task").is_dir(),
    reason="reads worker pids from /proc",
)
class TestServeShutdown:
    def test_sigterm_stops_the_server_and_its_workers(self, tmp_path):
        import os
        import pathlib
        import signal
        import socket
        import subprocess
        import sys
        import time

        import repro
        from repro.service.client import ServiceClient

        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        stderr = tmp_path / "stderr.txt"
        workers: set[int] = set()
        with open(stderr, "w") as err:
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve",
                    "--port", str(port), "--workers", "2", "--no-cache",
                ],
                stdout=subprocess.DEVNULL,
                stderr=err,
                cwd=tmp_path,
                env=env,
            )
        try:
            # the server answers once it listens, after the pool's warm-up
            assert ServiceClient(port=port, timeout=5.0).wait_ready(60)
            workers = _children(proc.pid)
            assert len(workers) >= 2
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0, stderr.read_text()[-2000:]
            deadline = time.monotonic() + 5
            while any(map(_alive, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in workers if _alive(pid)]
        finally:
            for pid in [proc.pid, *workers]:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
            proc.wait(timeout=10)
