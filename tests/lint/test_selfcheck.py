"""The gate, turned on itself: the shipped package must lint clean."""

from __future__ import annotations

from pathlib import Path

from repro.lint import all_rules, lint_paths, render_text, scan_pragmas

REPO_ROOT = Path(__file__).resolve().parents[2]
PACKAGE = REPO_ROOT / "src" / "repro"


def test_repro_package_is_lint_clean():
    report = lint_paths()
    assert report.ok, "\n" + render_text(report)
    assert report.files_scanned >= 80
    assert report.rules_run == (
        "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006",
        "RPR007", "RPR008", "RPR009", "RPR010", "RPR011",
    )


def test_all_eleven_rules_are_registered():
    assert tuple(r.code for r in all_rules()) == (
        "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006",
        "RPR007", "RPR008", "RPR009", "RPR010", "RPR011",
    )


def test_every_in_tree_pragma_is_justified():
    for path in sorted(PACKAGE.rglob("*.py")):
        for pragma in scan_pragmas(path.read_text()):
            assert pragma.justification, f"unjustified pragma at {path}:{pragma.comment_line}"

