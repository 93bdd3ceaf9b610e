"""The linter's currency: one :class:`Finding` per contract violation.

A finding pins a rule code to a source location with a human-actionable
message.  Findings are value objects — hashable, ordered by location,
JSON round-trippable — so the runner can sort them, a justified pragma
can suppress them, and the CI job can diff reports across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding", "PRAGMA_CODE"]

#: Findings about the lint mechanism itself (bad pragmas, parse errors).
#: They are emitted by the framework, not by a registered rule, and are
#: never suppressible — a broken suppression must not hide itself.
PRAGMA_CODE = "RPR000"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    It fails the gate unless a justified ``# repro: lint-ignore[...]``
    pragma on its line suppresses it; nothing else exempts a finding.
    """

    code: str  # "RPR002"
    path: str  # posix path relative to the package parent, e.g. "repro/core/report.py"
    line: int  # 1-based
    col: int  # 0-based, as ast reports it
    message: str

    @property
    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.code, self.message)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col} {self.code} {self.message}"

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
