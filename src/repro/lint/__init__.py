"""repro.lint — contract-aware static analysis with a zero-violation gate.

The repo's correctness rests on conventions no test can fully cover:
artifact writes are atomic, power caps are matched with ``math.isclose``
(never ``==``), pickle stays dead,
imports point down the documented layers, trace spans always close, and
shared registries mutate under their locks.  This package machine-checks
those conventions over the AST of every source file:

* :func:`lint_paths` / :func:`check_source` — the analysis pipeline;
* :mod:`repro.lint.rules` — the rule set (RPR001–RPR011), extensible
  via :func:`~repro.lint.registry.register`;
* :mod:`repro.lint.analysis` — the project-wide engine (symbol table,
  call graph, thread roots, lockset propagation) behind RPR008–RPR011;
* :mod:`repro.lint.sanitizer` — the *runtime* complement: lock-order
  and lockset checking under ``REPRO_SANITIZE=1`` / ``repro sanitize``;
* :mod:`repro.lint.pragmas` — justified, audited in-source suppressions;
* :mod:`repro.lint.baseline` — grandfather-then-burn-down semantics for
  adopting new rules (this repo's checked-in baseline is empty and CI
  keeps it that way);
* :mod:`repro.lint.reporting` — text and JSON reports.

``repro lint`` (and ``repro doctor --lint``) exit non-zero on any new
finding, making the contracts a blocking CI gate.  See
``docs/static_analysis.md``.
"""

from . import rules as _rules  # noqa: F401  — importing registers the rule set
from .baseline import DEFAULT_BASELINE_PATH, Baseline, finding_fingerprint
from .findings import PRAGMA_CODE, Finding
from .pragmas import Pragma, apply_pragmas, scan_pragmas
from .registry import (
    FileContext,
    ProjectRule,
    Rule,
    all_rules,
    get_rule,
    register,
    rule_codes,
)
from .reporting import render_json, render_stats, render_text
from .runner import LintReport, check_source, lint_paths

__all__ = [
    "Finding",
    "PRAGMA_CODE",
    "FileContext",
    "Rule",
    "ProjectRule",
    "register",
    "all_rules",
    "get_rule",
    "rule_codes",
    "Pragma",
    "scan_pragmas",
    "apply_pragmas",
    "Baseline",
    "finding_fingerprint",
    "DEFAULT_BASELINE_PATH",
    "LintReport",
    "lint_paths",
    "check_source",
    "render_text",
    "render_stats",
    "render_json",
]
