"""``repro lint`` / ``repro doctor --lint`` exit codes and artifacts."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

BAD = "def f(path, text):\n    path.write_text(text)\n"


def test_lint_clean_exits_zero(capsys):
    assert main(["lint"]) == 0
    assert "lint: clean" in capsys.readouterr().out


def test_lint_findings_exit_one(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(BAD)
    assert main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "RPR001" in out and "1 finding(s)" in out


def test_lint_json_report_artifact(tmp_path, capsys):
    artifact = tmp_path / "lint-report.json"
    assert main(["lint", "--format", "json", "--report", str(artifact)]) == 0
    on_stdout = json.loads(capsys.readouterr().out)
    on_disk = json.loads(artifact.read_text())
    assert on_stdout == on_disk
    assert on_disk["format"] == "repro-lint-report"
    assert on_disk["ok"] is True


def test_lint_stats_tables(capsys):
    assert main(["lint", "--stats"]) == 0
    out = capsys.readouterr().out
    for code in ("RPR001", "RPR004", "RPR007"):
        assert code in out


def test_lint_update_baseline_roundtrip(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(BAD)
    baseline = tmp_path / "baseline.json"
    assert main(["lint", str(tmp_path), "--baseline", str(baseline), "--update-baseline"]) == 0
    capsys.readouterr()
    assert main(["lint", str(tmp_path), "--baseline", str(baseline)]) == 0
    assert "grandfathered" in capsys.readouterr().out


def test_doctor_lint_runs_the_gate(capsys):
    assert main(["doctor", "--lint"]) == 0
    assert "lint: clean" in capsys.readouterr().out


def test_doctor_with_nothing_to_check_is_a_usage_error(capsys):
    assert main(["doctor"]) == 2
    assert "nothing to check" in capsys.readouterr().err


def test_doctor_lint_failure_propagates(tmp_path, capsys, monkeypatch):
    from repro import cli
    from repro.lint import lint_paths
    from repro.obs.metrics import MetricsRegistry

    (tmp_path / "mod.py").write_text(BAD)
    dirty = lint_paths([tmp_path], metrics=MetricsRegistry())
    monkeypatch.setattr(cli.api, "lint", lambda *a, **k: dirty)
    assert main(["doctor", "--lint"]) == 1
    assert "RPR001" in capsys.readouterr().out


def test_unknown_rule_selection_is_an_error():
    from repro.lint import lint_paths

    with pytest.raises(KeyError):
        lint_paths(rules=("RPR999",))


def test_lint_changed_scopes_reporting(tmp_path, capsys, monkeypatch):
    from repro import cli

    clean = tmp_path / "clean.py"
    clean.write_text("X = 1\n")
    dirty = tmp_path / "dirty.py"
    dirty.write_text(BAD)

    # Only `clean.py` is "changed": the dirty file's finding is out of scope.
    monkeypatch.setattr(cli, "_git_changed_files", lambda: [clean])
    assert main(["lint", "--changed", str(tmp_path)]) == 0
    assert "lint: clean" in capsys.readouterr().out

    monkeypatch.setattr(cli, "_git_changed_files", lambda: [dirty])
    assert main(["lint", "--changed", str(tmp_path)]) == 1
    assert "RPR001" in capsys.readouterr().out


def test_lint_changed_with_no_changes_short_circuits(capsys, monkeypatch):
    from repro import cli

    monkeypatch.setattr(cli, "_git_changed_files", lambda: [])
    assert main(["lint", "--changed"]) == 0
    assert "no changed python files" in capsys.readouterr().out


def test_lint_changed_outside_git_is_a_usage_error(capsys, monkeypatch):
    from repro import cli

    monkeypatch.setattr(cli, "_git_changed_files", lambda: None)
    assert main(["lint", "--changed"]) == 2
    assert "requires a git checkout" in capsys.readouterr().err


def test_sanitize_runs_inner_command_and_reports(tmp_path, capsys):
    import json as _json

    from repro.lint import sanitizer

    artifact = tmp_path / "sanitizer.json"
    try:
        assert main(["sanitize", "--show", "--report", str(artifact), "lint"]) == 0
    finally:
        sanitizer.uninstall()
        sanitizer.reset()
    out = capsys.readouterr().out
    assert "lint: clean" in out and "sanitizer:" in out
    doc = _json.loads(artifact.read_text())
    assert doc["format"] == "repro-sanitizer-report"
    assert doc["ok"] is True and doc["cycles"] == []


def test_sanitize_without_a_command_is_a_usage_error(capsys):
    assert main(["sanitize"]) == 2
    assert "subcommand" in capsys.readouterr().err


def test_sanitize_refuses_to_nest(capsys):
    assert main(["sanitize", "sanitize", "lint"]) == 2
    assert "nest" in capsys.readouterr().err
