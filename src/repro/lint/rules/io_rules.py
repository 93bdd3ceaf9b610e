"""Serialization contracts: atomic artifact writes and the pickle ban.

**RPR001 non-atomic-write** — every whole-file artifact write must go
through :mod:`repro.core.atomicio` (temp file + fsync + ``os.replace``),
because a crashed or concurrent sweep worker must never leave a torn
document for a later reader.  Bare ``open(path, "w"/"wb"/"x")``,
``Path.write_text``, and ``Path.write_bytes`` are flagged everywhere
except inside ``atomicio`` itself.  Append mode (``"a"``) is allowed:
the JSONL stores get durability from append + per-record fsync, and a
torn *tail* is recoverable where a torn *document* is not.  ``"r+"``
(in-place truncation during tail recovery) is likewise allowed.

**RPR003 pickle-ban** — pickle is neither stable across versions nor
safe to load; every persisted artifact is versioned JSON.
``pickle.load/loads/dump/dumps`` may appear in no file.
"""

from __future__ import annotations

import ast

from ..registry import FileContext, Rule, register

__all__ = ["NonAtomicWrite", "PickleBan"]

#: The sanctioned implementation of atomic replacement — the one place
#: a truncating open is the mechanism rather than the hazard.
ATOMICIO_IMPL = frozenset({"repro/core/atomicio.py"})

_PICKLE_BANNED = frozenset({"load", "loads", "dump", "dumps", "Pickler", "Unpickler"})


def _literal_mode(call: ast.Call) -> str | None:
    """The mode argument of an ``open`` call when statically knowable."""
    mode: ast.expr | None = None
    if len(call.args) >= 2:
        mode = call.args[1]
    else:
        for kw in call.keywords:
            if kw.arg == "mode":
                mode = kw.value
    if mode is None:
        return "r"  # open() defaults to read mode
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None  # dynamic mode: not provable, stay quiet


@register
class NonAtomicWrite(Rule):
    code = "RPR001"
    name = "non-atomic-write"
    summary = "whole-file writes must go through repro.core.atomicio"

    def check(self, ctx: FileContext):
        if ctx.relpath in ATOMICIO_IMPL:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                mode = _literal_mode(node)
                if mode is not None and any(c in mode for c in "wx"):
                    yield self.finding(
                        ctx,
                        node,
                        f"bare open(..., {mode!r}) can leave a torn file on crash; "
                        "use repro.core.atomicio.atomic_write_text/bytes/json "
                        "(append with fsync is exempt)",
                    )
            elif isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
                yield self.finding(
                    ctx,
                    node,
                    f"Path.{func.attr}() rewrites the file non-atomically; "
                    "use repro.core.atomicio.atomic_write_text/bytes/json",
                )


@register
class PickleBan(Rule):
    code = "RPR003"
    name = "pickle-ban"
    summary = "no pickle (de)serialization"

    def check(self, ctx: FileContext):
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "pickle"
                and node.func.attr in _PICKLE_BANNED
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"pickle.{node.func.attr}() is banned; "
                    "persist versioned JSON instead (see repro.core.profiles)",
                )
            elif isinstance(node, ast.ImportFrom) and node.module == "pickle":
                banned = [a.name for a in node.names if a.name in _PICKLE_BANNED]
                if banned:
                    yield self.finding(
                        ctx,
                        node,
                        f"importing {', '.join(banned)} from pickle is banned; "
                        "persist versioned JSON instead",
                    )
