"""The AST invariant checker: rules, pragmas, baseline, CLI contract.

The fixture modules under ``tests/lint_fixtures/`` are deliberately
broken (or deliberately clean twins); the directory is excluded from
directory walks and only ever linted as explicit file arguments.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.lint import (
    EXIT_FINDINGS,
    RULE_IDS,
    Finding,
    LintError,
    default_rules,
    fingerprint,
    load_baseline,
    run_lint,
)
from repro.analysis.lint.cli import main as lint_main
from repro.analysis.lint.engine import extract_pragmas, module_name_for
from repro.api.errors import EXIT_BAD_INPUT, EXIT_OK
from repro.cli import main as cli_main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO_ROOT, "tests", "lint_fixtures")


def fixture(*parts: str) -> str:
    return os.path.join(FIXTURES, *parts)


# ----------------------------------------------------------------------
# rules: every violation fixture fires its rule; every clean twin is quiet
# ----------------------------------------------------------------------
RULE_FIXTURES = [
    ("no-recursion", fixture("repro", "core", "recursion_bad.py"), 3),
    ("monotonic-clock", fixture("repro", "obs", "clock_bad.py"), 2),
    ("no-blocking-in-async", fixture("repro", "service", "async_bad.py"), 4),
    ("no-swallowed-exceptions", fixture("swallow_bad.py"), 2),
    ("cache-key-discipline", fixture("cache_key_bad.py"), 2),
    ("error-taxonomy", fixture("taxonomy_bad.py"), 1),
]

CLEAN_TWINS = [
    fixture("repro", "core", "recursion_ok.py"),
    fixture("repro", "obs", "clock_ok.py"),
    fixture("repro", "service", "async_ok.py"),
    fixture("swallow_ok.py"),
    fixture("cache_key_ok.py"),
    fixture("taxonomy_ok.py"),
]


class TestRules:
    @pytest.mark.parametrize(
        "rule_id,path,count", RULE_FIXTURES, ids=[r for r, _, _ in RULE_FIXTURES]
    )
    def test_violation_fixture_fires(self, rule_id, path, count):
        report = run_lint([path])
        assert [f.rule for f in report.findings] == [rule_id] * count

    @pytest.mark.parametrize(
        "path", CLEAN_TWINS, ids=[os.path.basename(p) for p in CLEAN_TWINS]
    )
    def test_clean_twin_is_quiet(self, path):
        report = run_lint([path])
        assert report.findings == []

    def test_mutual_recursion_names_the_cycle(self):
        report = run_lint([fixture("repro", "core", "recursion_bad.py")])
        mutual = [f for f in report.findings if "_even" in f.message]
        assert mutual and "mutual-recursion cycle" in mutual[0].message

    def test_rule_filter_runs_only_named_rules(self):
        report = run_lint(
            [fixture("swallow_bad.py"), fixture("taxonomy_bad.py")],
            rules=default_rules(["error-taxonomy"]),
        )
        assert {f.rule for f in report.findings} == {"error-taxonomy"}

    def test_unknown_rule_id_is_lint_error(self):
        with pytest.raises(LintError):
            default_rules(["no-such-rule"])


# ----------------------------------------------------------------------
# scoping: the same source outside a scoped package is not a finding
# ----------------------------------------------------------------------
class TestScoping:
    def test_module_name_anchors_on_mirrored_repro(self):
        assert (
            module_name_for("tests/lint_fixtures/repro/core/x.py")
            == "repro.core.x"
        )
        assert module_name_for("src/repro/api/errors.py") == "repro.api.errors"
        assert module_name_for("src/repro/obs/__init__.py") == "repro.obs"

    def test_recursion_is_legal_outside_kernel_scope(self, tmp_path):
        source = (fixture("repro", "core", "recursion_bad.py"),)
        body = open(source[0], encoding="utf-8").read()
        stray = tmp_path / "helpers.py"  # module "helpers": out of scope
        stray.write_text(body)
        assert run_lint([str(stray)]).findings == []

    def test_directory_walk_skips_lint_fixtures(self):
        report = run_lint([os.path.join(REPO_ROOT, "tests")])
        assert not any("lint_fixtures" in f.path for f in report.findings)


# ----------------------------------------------------------------------
# pragmas
# ----------------------------------------------------------------------
class TestPragmas:
    def test_justified_pragma_suppresses(self):
        report = run_lint([fixture("pragma_suppressed.py")])
        assert report.findings == []
        assert report.suppressed == 1

    def test_unjustified_pragma_does_not_suppress(self):
        report = run_lint([fixture("pragma_unjustified.py")])
        assert [f.rule for f in report.findings] == [
            "lint-pragma",
            "no-swallowed-exceptions",
        ]

    def test_pragma_naming_unknown_rule_is_reported(self, tmp_path):
        path = tmp_path / "m.py"
        path.write_text("x = 1  # repro: allow(no-such-rule) -- why\n")
        report = run_lint([str(path)])
        assert [f.rule for f in report.findings] == ["lint-pragma"]
        assert "unknown rule" in report.findings[0].message

    def test_malformed_pragma_is_reported(self, tmp_path):
        path = tmp_path / "m.py"
        path.write_text("x = 1  # repro: allowed(no-recursion)\n")
        report = run_lint([str(path)])
        assert [f.rule for f in report.findings] == ["lint-pragma"]
        assert "malformed" in report.findings[0].message

    def test_pragma_text_inside_string_is_ignored(self):
        pragmas, malformed = extract_pragmas(
            's = "# repro: allow(no-recursion) -- not a comment"\n'
        )
        assert pragmas == [] and malformed == []


# ----------------------------------------------------------------------
# baseline
# ----------------------------------------------------------------------
class TestBaseline:
    def test_roundtrip_via_cli(self, tmp_path, capsys):
        bad = fixture("swallow_bad.py")
        baseline = tmp_path / "baseline.json"
        assert (
            lint_main(["--write-baseline", "--baseline", str(baseline), bad])
            == EXIT_OK
        )
        capsys.readouterr()
        fps = load_baseline(str(baseline))
        assert len(fps) == 2
        # grandfathered: same findings now exit clean and count as baselined
        assert lint_main(["--baseline", str(baseline), bad]) == EXIT_OK
        assert "(0 suppressed, 2 baselined)" in capsys.readouterr().out

    def test_fingerprints_survive_line_shifts(self, tmp_path):
        body = "def f(x):\n    try:\n        return x()\n    except Exception:\n        return None\n"
        path = tmp_path / "m.py"
        path.write_text(body)
        before = run_lint([str(path)]).all_fingerprints
        path.write_text("# a comment\n# another\n\n" + body)
        after = run_lint([str(path)]).all_fingerprints
        assert before and before == after

    def test_fingerprint_is_location_independent_identity(self):
        finding = Finding(
            rule="r", path="p.py", line=3, col=0, message="m",
            symbol="f", module="mod",
        )
        shifted = Finding(
            rule="r", path="p.py", line=99, col=0, message="m",
            symbol="f", module="mod",
        )
        assert fingerprint(finding, "return x", 0) == fingerprint(shifted, "return x", 0)
        assert fingerprint(finding, "return x", 0) != fingerprint(finding, "return x", 1)

    def test_unreadable_baseline_is_bad_usage(self, tmp_path):
        bogus = tmp_path / "baseline.json"
        bogus.write_text('{"not": "a baseline"}')
        code = lint_main(["--baseline", str(bogus), fixture("swallow_ok.py")])
        assert code == EXIT_BAD_INPUT

    def test_missing_explicit_baseline_is_bad_usage(self, tmp_path):
        code = lint_main(
            ["--baseline", str(tmp_path / "absent.json"), fixture("swallow_ok.py")]
        )
        assert code == EXIT_BAD_INPUT


# ----------------------------------------------------------------------
# CLI: exit codes, JSON golden, subcommand wiring
# ----------------------------------------------------------------------
class TestCli:
    def test_exit_contract_clean(self, capsys):
        assert lint_main([fixture("swallow_ok.py")]) == EXIT_OK

    def test_exit_contract_findings(self, capsys):
        assert lint_main([fixture("swallow_bad.py")]) == EXIT_FINDINGS
        assert EXIT_FINDINGS == 1

    def test_exit_contract_bad_usage(self, tmp_path, capsys):
        assert lint_main(["--rule", "no-such-rule", "."]) == EXIT_BAD_INPUT
        assert lint_main([str(tmp_path / "missing")]) == EXIT_BAD_INPUT
        assert EXIT_BAD_INPUT == 2

    def test_parse_error_is_a_finding_not_a_crash(self, tmp_path, capsys):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n")
        assert lint_main([str(path)]) == EXIT_FINDINGS
        assert "parse-error" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == EXIT_OK
        out = capsys.readouterr().out
        for rule_id in RULE_IDS:
            assert rule_id in out

    def test_json_report_matches_golden(self, monkeypatch, capsys, tmp_path):
        monkeypatch.chdir(REPO_ROOT)
        out_file = tmp_path / "report.json"
        code = lint_main(
            [
                "--format", "json",
                "--output", str(out_file),
                "tests/lint_fixtures/cache_key_bad.py",
                "tests/lint_fixtures/taxonomy_bad.py",
            ]
        )
        assert code == EXIT_FINDINGS
        stdout = capsys.readouterr().out
        with open(fixture("golden_report.json"), encoding="utf-8") as fh:
            golden = json.load(fh)
        assert json.loads(stdout) == golden
        assert json.loads(out_file.read_text()) == golden

    def test_repro_cli_lint_subcommand(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        code = cli_main(["lint", "tests/lint_fixtures/taxonomy_bad.py"])
        assert code == EXIT_FINDINGS
        assert "error-taxonomy" in capsys.readouterr().out

    def test_self_check_src_repro_is_clean(self, monkeypatch, capsys):
        """The shipped tree passes its own linter (empty baseline)."""
        monkeypatch.chdir(REPO_ROOT)
        assert cli_main(["lint", "src/repro"]) == EXIT_OK
        assert "0 findings" in capsys.readouterr().out

    def test_shipped_baseline_is_empty(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert load_baseline("lint-baseline.json") == frozenset()


# ----------------------------------------------------------------------
# acceptance mirror: seed each violation into a scratch tree -> exit 1
# ----------------------------------------------------------------------
SEEDS = [
    (
        "no-recursion",
        ("repro", "core", "scratch.py"),
        "def total(node, children):\n"
        "    return 1 + sum(total(c, children) for c in children[node])\n",
    ),
    (
        "monotonic-clock",
        ("repro", "obs", "scratch.py"),
        "import time\n\n\ndef age(t0):\n    return time.time() - t0\n",
    ),
    (
        "no-blocking-in-async",
        ("repro", "service", "scratch.py"),
        "import time\n\n\nasync def handler():\n    time.sleep(1)\n",
    ),
    (
        "no-swallowed-exceptions",
        ("repro", "service", "scratch.py"),
        "def f(g):\n    try:\n        return g()\n    except:\n        pass\n",
    ),
    (
        "cache-key-discipline",
        ("repro", "api", "scratch.py"),
        "class R(CanonicalRequest):\n"
        "    hidden: int\n\n"
        "    def key_params(self):\n"
        "        return {}\n",
    ),
    (
        "error-taxonomy",
        ("repro", "api", "scratch.py"),
        "def f():\n    raise ProtocolError('made_up_code', 'nope')\n",
    ),
]


class TestAcceptanceSeeds:
    @pytest.mark.parametrize("rule_id,where,body", SEEDS, ids=[s[0] for s in SEEDS])
    def test_seeded_violation_fails_with_rule_in_json_report(
        self, tmp_path, capsys, rule_id, where, body
    ):
        path = tmp_path.joinpath(*where)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body)
        report_file = tmp_path / "report.json"
        code = cli_main(
            ["lint", "--format", "json", "--output", str(report_file), str(path)]
        )
        capsys.readouterr()
        assert code == EXIT_FINDINGS
        report = json.loads(report_file.read_text())
        assert rule_id in report["summary"]["rules"]
        assert any(f["rule"] == rule_id for f in report["findings"])
