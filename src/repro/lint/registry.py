"""Rule registry and per-file analysis context.

Every rule is a small class with a ``code`` (``RPRnnn``), a kebab-case
``name``, a one-line ``summary``, and a ``check(ctx)`` generator that
yields :class:`~repro.lint.findings.Finding` objects for one parsed
file.  Registration is declarative::

    @register
    class MyRule(Rule):
        code = "RPR042"
        name = "my-contract"
        summary = "what the contract forbids"

        def check(self, ctx):
            ...

The registry is populated once at import time by :mod:`repro.lint.rules`
and read-only afterwards, so no locking is needed.

Rules come in two granularities.  Plain :class:`Rule` subclasses see
one file at a time through ``check(ctx)``.  :class:`ProjectRule`
subclasses instead implement ``check_project(project)`` and receive a
:class:`~repro.lint.analysis.project.ProjectContext` built over *every*
file in the run — symbol table, call graph, thread roots — so they can
reason across call and module boundaries (RPR008–RPR011).  Both kinds
share the registry and pragma suppression.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .findings import Finding

__all__ = [
    "FileContext",
    "ProjectRule",
    "Rule",
    "register",
    "all_rules",
]


@dataclass
class FileContext:
    """Everything a rule may inspect about one source file."""

    relpath: str  # "repro/core/report.py" (posix, package-parent relative)
    module: str  # "repro.core.report"
    source: str
    tree: ast.Module
    is_package: bool = False  # True for __init__.py files
    lines: list[str] = field(default_factory=list)

    @classmethod
    def from_source(
        cls,
        source: str,
        *,
        relpath: str = "<memory>",
        module: str = "<module>",
        is_package: bool = False,
    ) -> "FileContext":
        """Parse ``source`` into a context (raises SyntaxError on bad input)."""
        return cls(
            relpath=relpath,
            module=module,
            source=source,
            tree=ast.parse(source, filename=relpath),
            is_package=is_package,
            lines=source.splitlines(),
        )

    def line(self, lineno: int) -> str:
        """The raw source text of a 1-based line (empty when out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


class Rule:
    """Base class for one contract check; subclasses set the class attrs."""

    code: str = ""
    name: str = ""
    summary: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        """A finding anchored at ``node``'s location in ``ctx``'s file."""
        return Finding(
            code=self.code,
            path=ctx.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=f"{self.name}: {message}",
        )


class ProjectRule(Rule):
    """A rule that runs once over the whole project, not per file.

    Subclasses implement ``check_project``; the per-file ``check`` hook
    is a no-op so a ProjectRule can sit in the same registry and be
    selected by code like any other rule.  ``finding_at`` anchors a
    finding in whichever file the evidence lives in.
    """

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project) -> Iterator[Finding]:
        raise NotImplementedError

    def finding_at(self, path: str, line: int, col: int, message: str) -> Finding:
        return Finding(
            code=self.code,
            path=path,
            line=line,
            col=col,
            message=f"{self.name}: {message}",
        )


_RULES: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding one instance of ``cls`` to the registry."""
    rule = cls()
    if not rule.code or not rule.name:
        raise ValueError(f"rule {cls.__name__} must define code and name")
    if rule.code in _RULES:
        raise ValueError(f"duplicate rule code {rule.code}")
    _RULES[rule.code] = rule
    return cls


def all_rules(codes: Iterable[str] | None = None) -> tuple[Rule, ...]:
    """Registered rules sorted by code; ``codes`` selects a subset."""
    if codes is None:
        return tuple(_RULES[c] for c in sorted(_RULES))
    out = []
    for code in codes:
        if code not in _RULES:
            raise KeyError(f"unknown lint rule {code!r}; known: {sorted(_RULES)}")
        out.append(_RULES[code])
    return tuple(sorted(out, key=lambda r: r.code))
