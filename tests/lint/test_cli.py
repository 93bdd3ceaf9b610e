"""``repro lint`` exit codes and artifacts."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cli import main
from repro.lint import lint_paths

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


def test_doctor_with_nothing_to_check_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["doctor"])
    assert exc.value.code == 2
    assert "the following arguments are required: store" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["lint", "--baseline", "X"], ["lint", "--update-baseline"], ["doctor", "S", "--lint"]],
    ids=["baseline", "update-baseline", "doctor-lint"],
)
def test_removed_gate_options_are_usage_errors(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_a_baseline_file_in_the_cwd_hides_nothing(tmp_path, capsys, monkeypatch):
    """A justified pragma is the only exemption: a ``lint_baseline.json``
    fingerprinting the finding, as earlier versions read by default,
    leaves it failing the gate."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(BAD)
    key = "RPR001|mod.py|path.write_text(text)|0"
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    (cwd / "lint_baseline.json").write_text(json.dumps({
        "format": "repro-lint-baseline",
        "version": 1,
        "entries": [hashlib.sha256(key.encode()).hexdigest()[:16]],
    }))
    monkeypatch.chdir(cwd)
    assert main(["lint", str(pkg)]) == 1
    assert "RPR001" in capsys.readouterr().out


def test_lint_paths_names_every_missing_path(tmp_path):
    (tmp_path / "mod.py").write_text(BAD)
    missing = [tmp_path / "no" / "such", tmp_path / "gone.py"]
    with pytest.raises(FileNotFoundError) as exc:
        lint_paths([tmp_path, *missing])
    assert all(str(p) in str(exc.value) for p in missing)


def test_lint_paths_without_a_python_file_raises(tmp_path):
    readme = tmp_path / "README.md"
    readme.write_text("# not python\n")
    (tmp_path / "empty").mkdir()
    for target in (readme, tmp_path / "empty"):
        with pytest.raises(FileNotFoundError, match="no python files"):
            lint_paths([target])


def test_lint_of_a_missing_path_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir"
    assert main(["lint", str(missing)]) == 2
    captured = capsys.readouterr()
    assert f"no such path: {missing}" in captured.err
    assert "clean" not in captured.out


def test_lint_of_a_path_without_python_files_is_a_usage_error(tmp_path, capsys):
    readme = tmp_path / "README.md"
    readme.write_text("# not python\n")
    assert main(["lint", str(readme)]) == 2
    captured = capsys.readouterr()
    assert "no python files" in captured.err
    assert "clean" not in captured.out


def test_unknown_rule_selection_is_an_error():
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
