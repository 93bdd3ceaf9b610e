"""Every RPR rule fires on its bad fixture and stays quiet on its good one."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import check_source, lint_paths
from repro.lint.runner import module_name_for

FIXTURES = Path(__file__).parent / "fixtures"

#: Rules scoped by module path (RPR004/RPR007 to repro subpackages,
#: RPR010 to the durability modules) lint their fixtures under a
#: pretend module path.
_FIXTURE_MODULES = {
    "RPR004": "repro.viz.fake",
    "RPR007": "repro.core.fake",
    "RPR009": "repro.serve.fake",
    "RPR010": "repro.fixtures.wal",
    "RPR011": "repro.serve.fake",
}

RULES = (
    "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006", "RPR007",
    "RPR008", "RPR009", "RPR010", "RPR011",
)


def _lint_fixture(code: str, kind: str):
    path = FIXTURES / f"{code.lower()}_{kind}.py"
    return check_source(
        path.read_text(),
        relpath=f"fixtures/{path.name}",
        module=_FIXTURE_MODULES.get(code, "<module>"),
    )


@pytest.mark.parametrize("code", RULES)
def test_bad_fixture_fires_only_its_rule(code):
    findings = _lint_fixture(code, "bad")
    assert findings, f"{code} bad fixture produced no findings"
    assert {f.code for f in findings} == {code}


@pytest.mark.parametrize("code", RULES)
def test_good_fixture_is_clean(code):
    assert _lint_fixture(code, "good") == []


@pytest.mark.parametrize(
    "code, expected",
    [("RPR001", 5), ("RPR002", 2), ("RPR003", 3), ("RPR004", 2),
     ("RPR005", 2), ("RPR006", 2), ("RPR007", 2), ("RPR008", 3),
     ("RPR009", 3), ("RPR010", 3), ("RPR011", 3)],
)
def test_bad_fixture_flags_every_site(code, expected):
    assert len(_lint_fixture(code, "bad")) == expected


@pytest.mark.parametrize(
    "module, flagged",
    [("repro.obs.durable", False), ("repro.serve.wal", False), ("repro.core.store", True)],
)
def test_rpr001_allows_append_only_in_the_durability_modules(module, flagged):
    source = (FIXTURES / "rpr001_append.py").read_text()
    findings = check_source(source, relpath="fixtures/rpr001_append.py", module=module)
    assert [f.code for f in findings] == (["RPR001"] if flagged else [])


def test_findings_carry_location_and_render():
    f = _lint_fixture("RPR001", "bad")[0]
    assert f.line > 0
    rendered = f.render()
    assert rendered.startswith("fixtures/rpr001_bad.py:")
    assert "RPR001" in rendered


def test_parse_error_is_reported_not_raised():
    findings = check_source("def broken(:\n", relpath="x.py")
    assert [f.code for f in findings] == ["RPR000"]
    assert "parse-error" in findings[0].message


def test_rule_selection_limits_the_run():
    source = (FIXTURES / "rpr001_bad.py").read_text()
    findings = check_source(source, rules=("RPR003",))
    assert findings == []


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.py")), ids=lambda p: p.name)
def test_check_source_and_lint_paths_agree(path):
    """One pipeline: a fixture linted from memory and from disk gives the
    same findings."""
    module, is_package, root = module_name_for(path)
    in_memory = check_source(
        path.read_text(),
        relpath=path.relative_to(root).as_posix(),
        module=module,
        is_package=is_package,
    )
    assert in_memory == lint_paths([path]).findings
