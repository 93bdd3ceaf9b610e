"""RPR004 — the import-graph contract from ``docs/module_guide.md``.

The repo is layered bottom-up and *imports only point downward*:

====== =====================================================
layer  modules
====== =====================================================
0      ``repro.workload``
1      ``repro.data``, ``repro.obs``
2      ``repro.viz``, ``repro.machine``, ``repro.cloverleaf``
3      ``repro.insitu``
4      ``repro.core``
5      ``repro.faults``, ``repro.harness``, ``repro.lint``, ``repro.serve``
6      ``repro.api``
7      ``repro`` (root), ``repro.cli``
8      ``repro.__main__``
====== =====================================================

Additional contracts checked at *module scope* (function-local deferred
imports are exempt: they are the sanctioned way to cross a layer at call
time):

* ``repro.obs`` imports **nothing** from ``repro`` — it sits at the
  bottom so every layer may instrument itself;
* ``repro.api`` is the only public facade: just the package root,
  ``repro.cli``, and ``repro.__main__`` may import it;
* only ``repro.__main__`` may import ``repro.cli``;
* imports within one subpackage are unconstrained.

A module missing from the table is flagged too, so the map cannot rot.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..registry import FileContext, Rule, register

__all__ = ["LayeringContract", "LAYERS"]

#: Layer per top-level component of ``repro.<component>``.
LAYERS: dict[str, int] = {
    "workload": 0,
    "data": 1,
    "obs": 1,
    "viz": 2,
    "machine": 2,
    "cloverleaf": 2,
    "insitu": 3,
    "core": 4,
    "faults": 5,
    "harness": 5,
    "lint": 5,
    "serve": 5,
    "api": 6,
    "cli": 7,
    "__main__": 8,
}

_ROOT_LAYER = 7  # the package __init__ re-exports the facade

_API_IMPORTERS = frozenset({"repro", "repro.cli", "repro.__main__"})
_CLI_IMPORTERS = frozenset({"repro", "repro.__main__"})


def _component(module: str) -> str | None:
    """``repro.core.engine`` -> ``core``; the root package -> ``""``."""
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    return parts[1] if len(parts) > 1 else ""


def _layer(module: str) -> int | None:
    comp = _component(module)
    if comp is None:
        return None
    if comp == "":
        return _ROOT_LAYER
    return LAYERS.get(comp)


def _module_scope_imports(ctx: FileContext) -> Iterator[tuple[ast.stmt, str]]:
    """(node, absolute target module) for every module-scope import.

    Imports inside function bodies are deferred to call time and exempt;
    class bodies and module-level conditionals execute at import time
    and are checked.
    """

    def walk(body: list[ast.stmt]) -> Iterator[tuple[ast.stmt, str]]:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield node, alias.name
            elif isinstance(node, ast.ImportFrom):
                base = ctx.module if ctx.is_package else ctx.module.rsplit(".", 1)[0]
                if node.level:
                    parts = base.split(".")
                    strip = node.level - 1
                    if strip:
                        parts = parts[: -strip or None]
                    base = ".".join(parts)
                    absolute = base + ("." + node.module if node.module else "")
                else:
                    absolute = node.module or ""
                if node.module is None and node.level:
                    # ``from . import x`` — each name is itself a module.
                    for alias in node.names:
                        yield node, f"{absolute}.{alias.name}"
                elif absolute:
                    yield node, absolute
            else:
                for child_body in (
                    getattr(node, "body", None),
                    getattr(node, "orelse", None),
                    getattr(node, "finalbody", None),
                ):
                    if child_body:
                        yield from walk(child_body)
                for handler in getattr(node, "handlers", ()) or ():
                    yield from walk(handler.body)

    yield from walk(ctx.tree.body)


@register
class LayeringContract(Rule):
    code = "RPR004"
    name = "layering"
    summary = "module-scope imports must respect the layer map"

    def check(self, ctx: FileContext):
        own_layer = _layer(ctx.module)
        own_comp = _component(ctx.module)
        if own_comp is None:
            return  # not part of the repro package (fixtures pass a module=)
        for node, target in _module_scope_imports(ctx):
            comp = _component(target)
            if comp is None:
                continue  # stdlib / third-party
            if comp == own_comp and comp != "":
                continue  # intra-subpackage imports are free
            if own_comp == "obs":
                yield self.finding(
                    ctx,
                    node,
                    f"repro.obs must import nothing from repro at module scope "
                    f"(found {target}); defer the import into the function that "
                    "needs it",
                )
                continue
            if comp == "api" and ctx.module not in _API_IMPORTERS:
                yield self.finding(
                    ctx,
                    node,
                    f"repro.api is the public facade; {ctx.module} must depend on "
                    "the layers below it, not on the facade",
                )
                continue
            if comp == "cli" and ctx.module not in _CLI_IMPORTERS:
                yield self.finding(
                    ctx, node, f"only repro.__main__ may import repro.cli (found in {ctx.module})"
                )
                continue
            target_layer = _layer(target)
            if own_layer is None or target_layer is None:
                missing = ctx.module if own_layer is None else target
                yield self.finding(
                    ctx,
                    node,
                    f"{missing} is not in the layer map; add it to "
                    "repro.lint.rules.layering.LAYERS and docs/module_guide.md",
                )
            elif target_layer > own_layer:
                yield self.finding(
                    ctx,
                    node,
                    f"upward import: {ctx.module} (layer {own_layer}) must not "
                    f"import {target} (layer {target_layer}) at module scope",
                )
