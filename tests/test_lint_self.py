"""Self-check: the shipped ``src/repro`` tree must lint clean, and the
``repro lint`` CLI must honor its exit-code and flag contract."""

import json
import os

import pytest

from repro.cli import main
from repro.lint import lint_paths

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")


def test_shipped_tree_is_clean():
    report = lint_paths([SRC_REPRO])
    assert report.findings == [], "\n".join(
        f.format() for f in report.findings
    )
    assert report.parse_failures == []
    assert report.exit_code == 0
    # the whole package was actually scanned, not a sliver of it
    assert report.files_checked > 50


def test_shipped_tree_is_clean_deep():
    """The gating deep passes (nondet-taint, fork-safety,
    cache-key-soundness) report no error on the shipped tree, against
    the committed baseline -- the same check as ``repro lint src/repro
    --deep --baseline lint-baseline.json``."""
    report = lint_paths(
        [SRC_REPRO],
        deep=True,
        baseline_path=os.path.join(REPO_ROOT, "lint-baseline.json"),
    )
    assert report.errors == [], "\n".join(f.format() for f in report.errors)
    assert report.parse_failures == []
    assert report.exit_code == 0


def test_cli_lint_clean_exit_zero(capsys):
    assert main(["lint", SRC_REPRO]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_cli_lint_json_report(capsys):
    assert main(["lint", SRC_REPRO, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["clean"] is True
    assert payload["summary"]["errors"] == 0
    assert set(payload["summary"]["rules"]) >= {
        "no-unseeded-rng",
        "no-envelope-forgery",
        "frozen-payloads",
        "ordered-iteration",
        "registry-conformance",
        "no-received-mutation",
    }


def test_cli_lint_default_path_is_installed_package(capsys):
    assert main(["lint"]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "no-unseeded-rng" in out
    assert "registry-conformance" in out


def test_cli_violation_exit_one(tmp_path, capsys):
    (tmp_path / "mod.py").write_text("import random\nx = random.random()\n")
    assert main(["lint", str(tmp_path)]) == 1
    assert "error[no-unseeded-rng]" in capsys.readouterr().out


def test_cli_parse_failure_exit_two(tmp_path, capsys):
    (tmp_path / "mod.py").write_text("def broken(:\n")
    assert main(["lint", str(tmp_path)]) == 2


def test_cli_unknown_rule_exit_two(capsys):
    assert main(["lint", SRC_REPRO, "--rules", "no-such-rule"]) == 2
    assert "no-such-rule" in capsys.readouterr().err


def test_cli_missing_path_exit_two(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "nope")]) == 2
    assert capsys.readouterr().err


def test_cli_rule_subset(tmp_path, capsys):
    (tmp_path / "mod.py").write_text("import random\nx = random.random()\n")
    # a subset that excludes the offending rule reports clean
    assert main(["lint", str(tmp_path), "--rules", "frozen-payloads"]) == 0
