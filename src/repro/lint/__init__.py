"""repro.lint — contract-aware static analysis with a zero-violation gate.

The repo's correctness rests on conventions no test can fully cover:
artifact writes are atomic, power caps are matched with ``math.isclose``
(never ``==``), pickle stays dead,
imports point down the documented layers, trace spans always close, and
shared registries mutate under their locks.  This package machine-checks
those conventions over the AST of every source file:

* :func:`lint_paths` / :func:`check_source` — one analysis pipeline, over
  files or over one in-memory source;
* :mod:`repro.lint.rules` — the rule set (RPR001–RPR011), extensible
  via :func:`~repro.lint.registry.register`;
* :mod:`repro.lint.analysis` — the project-wide engine (symbol table,
  call graph, thread roots, lockset propagation) behind RPR008–RPR011;
* :mod:`repro.lint.sanitizer` — the *runtime* complement: lock-order
  checking under ``REPRO_SANITIZE=1`` / ``repro sanitize``;
* :mod:`repro.lint.pragmas` — justified, audited in-source suppressions,
  the only way to accept a finding;
* :mod:`repro.lint.reporting` — text and JSON reports.

``repro lint`` exits non-zero on any finding a justified pragma does
not suppress, making the contracts a blocking CI gate.  See
``docs/static_analysis.md``.
"""

from . import rules as _rules  # noqa: F401  — importing registers the rule set
from .findings import PRAGMA_CODE, Finding
from .pragmas import Pragma, apply_pragmas, scan_pragmas
from .registry import FileContext, ProjectRule, Rule, all_rules, register
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
    "Pragma",
    "scan_pragmas",
    "apply_pragmas",
    "LintReport",
    "lint_paths",
    "check_source",
    "render_text",
    "render_stats",
    "render_json",
]
