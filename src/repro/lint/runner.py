"""The lint driver: walk sources, run rules, apply pragmas.

:func:`lint_paths` is the whole pipeline behind ``repro lint``:

1. collect ``*.py`` files under the given paths (default: the installed
   ``repro`` package — i.e. ``src/repro`` in a checkout); a path that
   does not exist, or paths that hold no ``*.py`` file, raise
   ``FileNotFoundError``, so a mistyped path fails the gate instead of
   passing it with nothing scanned;
2. lint them in one pass (:func:`_lint_sources`): parse every file (a
   file that does not parse yields a single ``RPR000`` finding), run the
   per-file rules over each parsed file, then build one
   :class:`~repro.lint.analysis.project.ProjectContext` over *all*
   parsed files and run the project-wide rules (RPR008–RPR011) on it,
   and apply ``# repro: lint-ignore[...]`` pragmas per file (justified
   suppressions drop findings; defective pragmas *add* findings);
3. optionally scope the surviving findings to a changed-file set
   (``repro lint --changed``) — the whole project is still analysed so
   cross-file rules see every thread root, only the *reporting* narrows.

A justified pragma is the only way to accept a finding: every other
finding fails the run.

:func:`check_source` runs the same pass over one in-memory source for
tests and tooling; project rules run over a one-file project there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .analysis.project import ProjectContext
from .findings import PRAGMA_CODE, Finding
from .pragmas import apply_pragmas, scan_pragmas
from .registry import FileContext, ProjectRule, Rule, all_rules

__all__ = ["LintReport", "lint_paths", "check_source", "module_name_for"]

#: The package this linter ships to guard.
DEFAULT_TARGET = Path(__file__).resolve().parents[1]


@dataclass
class LintReport:
    """Outcome of one lint run (``repro lint``'s return value)."""

    findings: list[Finding] = field(default_factory=list)  # gate-breaking
    suppressed: list[Finding] = field(default_factory=list)  # justified pragmas
    files_scanned: int = 0
    rules_run: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts_by_rule(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.code] = out.get(f.code, 0) + 1
        return dict(sorted(out.items()))

    def counts_by_file(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.path] = out.get(f.path, 0) + 1
        return dict(sorted(out.items(), key=lambda kv: (-kv[1], kv[0])))

    def to_json(self) -> dict:
        return {
            "format": "repro-lint-report",
            "version": 2,
            "ok": self.ok,
            "files_scanned": self.files_scanned,
            "rules_run": list(self.rules_run),
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "stats": {"by_rule": self.counts_by_rule(), "by_file": self.counts_by_file()},
        }


def module_name_for(path: Path) -> tuple[str, bool, Path]:
    """Resolve a file to (dotted module, is_package, package parent dir).

    Walks up through ``__init__.py`` markers, so ``src/repro/core/x.py``
    maps to ``repro.core.x`` with parent ``src`` no matter where the
    linter is invoked from.
    """
    path = path.resolve()
    is_package = path.name == "__init__.py"
    parts: list[str] = [] if is_package else [path.stem]
    d = path.parent
    while (d / "__init__.py").exists():
        parts.insert(0, d.name)
        d = d.parent
    if not parts:
        parts = [path.stem]
    return ".".join(parts), is_package, d


def _iter_py_files(target: Path) -> list[Path]:
    if target.is_file():
        return [target] if target.suffix == ".py" else []
    return [p for p in target.rglob("*.py") if "__pycache__" not in p.parts]


def _collect_files(targets: list[Path]) -> list[Path]:
    """The distinct ``*.py`` files under ``targets``, resolved and sorted.

    Raises ``FileNotFoundError`` naming every target that does not
    exist, or when the targets hold no ``*.py`` file at all.
    """
    missing = [str(t) for t in targets if not t.exists()]
    if missing:
        raise FileNotFoundError(f"no such path: {', '.join(missing)}")
    files = {f.resolve() for t in targets for f in _iter_py_files(t)}
    if not files:
        raise FileNotFoundError(f"no python files in {', '.join(str(t) for t in targets)}")
    return sorted(files)


def _lint_sources(
    sources: list[tuple[str, str, str, bool]], selected: tuple[Rule, ...]
) -> tuple[list[Finding], list[Finding]]:
    """Lint ``(source, relpath, module, is_package)`` entries as one project.

    Returns (kept, suppressed), each sorted by location.  A source that
    does not parse yields one ``RPR000`` finding and is left out of the
    analysis.
    """
    kept: list[Finding] = []
    contexts: list[FileContext] = []
    for source, relpath, module, is_package in sources:
        try:
            contexts.append(
                FileContext.from_source(
                    source, relpath=relpath, module=module, is_package=is_package
                )
            )
        except SyntaxError as exc:
            kept.append(
                Finding(
                    code=PRAGMA_CODE,
                    path=relpath,
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    message=f"parse-error: {exc.msg}",
                )
            )

    file_rules = [r for r in selected if not isinstance(r, ProjectRule)]
    project_rules = [r for r in selected if isinstance(r, ProjectRule)]
    raw_by_file: dict[str, list[Finding]] = {}
    for ctx in contexts:
        out = raw_by_file.setdefault(ctx.relpath, [])
        for rule in file_rules:
            out.extend(rule.check(ctx))
    if project_rules:
        project = ProjectContext(contexts)
        for rule in project_rules:
            for finding in rule.check_project(project):
                raw_by_file.setdefault(finding.path, []).append(finding)

    known_codes = frozenset(r.code for r in selected)
    suppressed: list[Finding] = []
    for ctx in contexts:
        k, s = apply_pragmas(
            raw_by_file.get(ctx.relpath, []),
            scan_pragmas(ctx.source),
            relpath=ctx.relpath,
            known_codes=known_codes,
        )
        kept.extend(k)
        suppressed.extend(s)
    kept.sort(key=lambda f: f.sort_key)
    suppressed.sort(key=lambda f: f.sort_key)
    return kept, suppressed


def check_source(
    source: str,
    *,
    relpath: str = "<memory>",
    module: str = "<module>",
    is_package: bool = False,
    rules=None,
) -> list[Finding]:
    """Lint one source string; returns the findings that survive pragmas.

    The same pass as :func:`lint_paths`, over a one-file project, so
    thread roots and call edges inside the snippet are still discovered.
    """
    kept, _suppressed = _lint_sources(
        [(source, relpath, module, is_package)], all_rules(rules)
    )
    return kept


def lint_paths(
    paths=None,
    *,
    rules=None,
    only: Iterable[str | Path] | None = None,
) -> LintReport:
    """Lint files/directories (default: the ``repro`` package). See module doc.

    ``only`` restricts *reported* findings to the given files (used by
    ``repro lint --changed``); the full path set is still parsed and
    analysed so project-wide rules keep their whole-program view.
    """
    files = _collect_files([Path(p) for p in paths] if paths else [DEFAULT_TARGET])
    selected = all_rules(rules)
    sources: list[tuple[str, str, str, bool]] = []
    relpath_of: dict[str, Path] = {}
    for f in files:
        module, is_package, root = module_name_for(f)
        relpath = f.relative_to(root).as_posix()
        relpath_of[relpath] = f
        sources.append((f.read_text(), relpath, module, is_package))
    kept, suppressed = _lint_sources(sources, selected)

    if only is not None:
        wanted = {Path(p).resolve() for p in only}
        kept = [f for f in kept if relpath_of.get(f.path) in wanted]
        suppressed = [f for f in suppressed if relpath_of.get(f.path) in wanted]

    return LintReport(
        findings=kept,
        suppressed=suppressed,
        files_scanned=len(files),
        rules_run=tuple(r.code for r in selected),
    )
