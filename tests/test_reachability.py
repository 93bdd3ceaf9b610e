"""Reachability gate: public code in ``src/repro`` is reached from a real entry point.

A *candidate* is a public (no leading underscore) module-level function or
class of ``src/repro``.  It is *reached* when some reached code uses its
name.  The roots are:

* all of ``src/repro``: module-level statements, decorated definitions
  (decorators register them) and private module-level definitions;
* every ``.py`` file under ``examples/``, ``benchmarks/``, ``scripts/``
  and ``perfbench/``;
* the ``from repro... import ...`` lines of ``.github/workflows/*.yml``;
* the names in ``repro.api.__all__``.

A use is a ``Name`` or ``Attribute`` load, an identifier-shaped string
(``getattr`` and perfbench's ``setattr`` table name attributes that way),
or the original name of an aliased ``from ... import x as y``.  Plain
imports and ``__all__`` lists are not uses, and a candidate's body counts
only once the candidate itself is reached (iterated to a fixpoint), so
neither recursion nor a chain of unreached candidates keeps code alive.

Tests are not roots: code that only tests call is deleted, or kept in
:data:`KEEP` with a one-line reason.  This is a test rather than a
``repro lint`` rule because the roots live outside the linted package,
and because the linter's call graph is conservative by design, so
reachability built on it would flag code reached through duck typing or
registries.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: Unreached symbols kept on purpose: ``module.name`` (under ``repro``) -> reason.
KEEP = {
    "insitu.cluster.Cluster":
        "DESIGN §3: the §III-A overprovisioned cluster; ROADMAP item 3 plans Cluster(variation=)",
    "insitu.cluster.uniform_caps": "DESIGN §3: the naive §III-A budget division",
    "insitu.cluster.demand_aware_caps": "DESIGN §3: the informed §III-A budget division",
    "insitu.dynamic.DynamicPowerRuntime": "DESIGN §5, X2: the per-cycle runtime §VII envisions",
    "data.grid.cell_corner_reduce": "whole-lattice reference for slab_corner_reduce's tests",
    "data.io.load_obj": "reader for the write_obj round-trip tests",
    "harness.emit.result_from_csv": "reader for the result_to_csv round-trip tests",
    "faults.storefx.corrupt_header": "fault instrument for store-recovery tests",
    "faults.storefx.flip_fingerprint": "fault instrument for store-mismatch tests",
    "faults.machine.clear_machine_faults": "fault instrument: resets process-wide machine faults",
    "lint.runner.check_source": "the linter's in-memory entry point for rule tests",
    "obs.metrics.set_registry": "test hook: swaps the process-wide metrics registry",
}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_WORKFLOW_IMPORT = re.compile(r"^\s*from\s+repro[\w.]*\s+import\s+(.+)$")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _uses(node: ast.AST) -> set[str]:
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if _IDENT.match(sub.value):
                out.add(sub.value)
        elif isinstance(sub, ast.ImportFrom):
            out.update(a.name for a in sub.names if a.asname not in (None, a.name))
    return out


def _is_all(stmt: ast.stmt) -> bool:
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def unreached(repo: Path) -> list[tuple[str, int, str]]:
    """``(file, line, module.name)`` of every unreached candidate under ``repo``."""
    src = repo / "src" / "repro"
    reached: set[str] = set()
    candidates = []  # (file, line, key, name, uses of the definition)
    for path in sorted(src.rglob("*.py")):
        module = [p for p in path.relative_to(src).with_suffix("").parts if p != "__init__"]
        for stmt in ast.parse(path.read_text()).body:
            if _is_all(stmt):
                if path == src / "api.py":
                    reached.update(ast.literal_eval(stmt.value))
            elif isinstance(stmt, _DEFS) and not stmt.decorator_list and stmt.name[0] != "_":
                file, key = str(path.relative_to(repo)), ".".join([*module, stmt.name])
                candidates.append((file, stmt.lineno, key, stmt.name, _uses(stmt)))
            else:
                reached |= _uses(stmt)
    for root in ("examples", "benchmarks", "scripts", "perfbench"):
        for path in sorted((repo / root).rglob("*.py")):
            reached |= _uses(ast.parse(path.read_text()))
    for workflow in sorted((repo / ".github" / "workflows").glob("*.yml")):
        for line in workflow.read_text().splitlines():
            if m := _WORKFLOW_IMPORT.match(line):
                names = m.group(1).strip("()").split(",")
                reached.update(n.split(" as ")[0].strip() for n in names)

    pending = candidates
    while live := [c for c in pending if c[3] in reached]:
        pending = [c for c in pending if c[3] not in reached]
        for c in live:
            reached |= c[4]
    return [(file, line, key) for file, line, key, _, _ in pending]


@pytest.fixture(scope="module")
def scan() -> list[tuple[str, int, str]]:
    return unreached(REPO)


def test_every_public_symbol_is_reached_or_kept(scan):
    missing = [f"{file}:{line} {key}" for file, line, key in scan if key not in KEEP]
    assert not missing, (
        "unreached from every entry point (delete, or add to KEEP):\n" + "\n".join(missing)
    )


def test_keep_rows_name_unreached_symbols(scan):
    stale = sorted(set(KEEP) - {key for _, _, key in scan})
    assert not stale, "KEEP rows that are now reached or no longer exist:\n" + "\n".join(stale)
