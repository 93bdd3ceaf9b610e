"""Render a :class:`~repro.lint.runner.LintReport` as text or JSON.

The text form is one GCC-style line per finding plus a summary tail;
``--stats`` adds per-rule and per-file violation tables.  The JSON form
is the artifact CI uploads (``repro lint --report lint-report.json``).
"""

from __future__ import annotations

import json

from .registry import all_rules
from .runner import LintReport

__all__ = ["render_text", "render_stats", "render_json"]


def render_text(report: LintReport, *, stats: bool = False) -> str:
    lines = [f.render() for f in report.findings]
    verdict = "clean" if report.ok else f"{len(report.findings)} finding(s)"
    lines.append(
        f"lint: {verdict} — {report.files_scanned} files, "
        f"{len(report.rules_run)} rules, {len(report.suppressed)} pragma-suppressed"
    )
    if stats:
        lines.append("")
        lines.append(render_stats(report))
    return "\n".join(lines)


def render_stats(report: LintReport) -> str:
    """Violations by rule and by file (the ``--stats`` tables)."""
    by_rule = report.counts_by_rule()
    sup_by_rule: dict[str, int] = {}
    for f in report.suppressed:
        sup_by_rule[f.code] = sup_by_rule.get(f.code, 0) + 1
    lines = [f"{'rule':<8s} {'name':<30s} {'new':>5s} {'suppressed':>11s}"]
    for rule in all_rules(report.rules_run or None):
        lines.append(
            f"{rule.code:<8s} {rule.name:<30s} "
            f"{by_rule.get(rule.code, 0):>5d} {sup_by_rule.get(rule.code, 0):>11d}"
        )
    framework = by_rule.get("RPR000", 0)
    if framework:
        lines.append(f"{'RPR000':<8s} {'lint-framework':<30s} {framework:>5d} {0:>11d}")
    by_file = report.counts_by_file()
    if by_file:
        lines.append("")
        lines.append(f"{'findings':>8s}  file")
        for path, n in by_file.items():
            lines.append(f"{n:>8d}  {path}")
    return "\n".join(lines)


def render_json(report: LintReport, *, indent: int | None = 1) -> str:
    return json.dumps(report.to_json(), indent=indent, sort_keys=True)
