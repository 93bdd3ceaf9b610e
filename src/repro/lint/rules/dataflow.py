"""Cross-file contracts on the project analysis engine (RPR008–RPR011).

**RPR008 unit-flow** — extends RPR006 across call boundaries: a call
result bound to a name with a different unit suffix than the callee's
inferred return unit, or an argument whose unit disagrees with the
parameter name's suffix, is a silent dimensional bug (``cap_w =
runtime_of(...)``).  Only fires when *both* units are known and the
callee resolves unambiguously in the project call graph.

**RPR009 lockset-race** — Eraser-style lockset discipline: a module or
instance cell written outside its constructor, reachable from two
concurrent thread roots (or from one root that runs multiple
instances), where the intersection of locks held across all accesses is
empty.  That cell has no lock that consistently protects it.

**RPR010 durability-ordering** — in the durability-critical modules
(``serve/wal.py``, ``obs/durable.py``): an ``os.replace`` that
publishes a file without a preceding ``os.fsync``, or an append-mode
write not followed by ``flush()`` + ``os.fsync`` in the same function,
makes a record visible before it is durable — exactly the torn-write
window the WAL exists to close.

**RPR011 blocking-under-lock** — ``time.sleep``, ``os.fsync``,
``subprocess``, ``Processor.run`` and the atomic-write helpers stall
every thread contending for a lock held across them.  Flagged both when
the call sits lexically inside ``with lock:`` and when the enclosing
function is reachable with a lock held through the call graph.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..analysis.model import WRITE, Callee, FunctionInfo
from ..analysis.units import unit_of
from ..findings import Finding
from ..registry import FileContext, ProjectRule, Rule, register

__all__ = ["UnitFlow", "LocksetRace", "DurabilityOrdering", "BlockingUnderLock"]


def _fmt_locks(locks: frozenset[str]) -> str:
    return "{" + ", ".join(sorted(locks)) + "}" if locks else "no lock"


@register
class UnitFlow(ProjectRule):
    code = "RPR008"
    name = "unit-flow"
    summary = "unit suffixes disagree across a call/return boundary"

    def check_project(self, project) -> Iterator[Finding]:
        graph = project.graph
        for fn in sorted(graph.functions.values(), key=lambda f: (f.path, f.line)):
            for call in fn.calls:
                callee = graph.resolve(fn, call.callee)
                if callee is None or callee.qualname == fn.qualname:
                    continue
                ret = callee.return_unit
                if ret and call.bound_unit and ret != call.bound_unit:
                    yield self.finding_at(
                        call.path,
                        call.line,
                        call.col,
                        f"{call.bound_name!r} ({call.bound_unit}) bound to "
                        f"{callee.name}() which returns {ret}; convert "
                        "explicitly or rename the binding",
                    )
                params = list(callee.params)
                if callee.cls is not None and params and params[0] in ("self", "cls"):
                    params = params[1:]
                for i, arg_unit in enumerate(call.arg_units):
                    if arg_unit is None or i >= len(params):
                        continue
                    want = unit_of(params[i])
                    if want and want != arg_unit:
                        yield self.finding_at(
                            call.path,
                            call.line,
                            call.col,
                            f"argument {i + 1} of {callee.name}() carries "
                            f"{arg_unit} but parameter {params[i]!r} expects "
                            f"{want}",
                        )
                for kwname, kw_unit in call.kwarg_units:
                    if kw_unit is None:
                        continue
                    want = unit_of(kwname)
                    if want and want != kw_unit:
                        yield self.finding_at(
                            call.path,
                            call.line,
                            call.col,
                            f"keyword {kwname!r} of {callee.name}() expects "
                            f"{want} but the value carries {kw_unit}",
                        )


@register
class LocksetRace(ProjectRule):
    code = "RPR009"
    name = "lockset-race"
    summary = "shared state written under inconsistent locksets from ≥2 thread roots"

    def check_project(self, project) -> Iterator[Finding]:
        access_map = project.access_map()
        for location in sorted(access_map, key=lambda l: (l.owner, l.name)):
            rooted = [ra for ra in access_map[location] if not ra.access.in_constructor]
            writes = [ra for ra in rooted if ra.access.op == WRITE]
            if not writes:
                continue
            root_keys = {(ra.root.function, ra.root.kind) for ra in rooted}
            concurrent = len(root_keys) >= 2 or any(ra.root.multi for ra in rooted)
            if not concurrent:
                continue
            candidate = frozenset.intersection(*(ra.lockset for ra in rooted))
            if candidate:
                continue
            anchor = min(writes, key=lambda ra: (ra.access.path, ra.access.line))
            other = next(
                (
                    ra
                    for ra in sorted(rooted, key=lambda r: (r.access.path, r.access.line))
                    if (ra.root.function, ra.root.kind)
                    != (anchor.root.function, anchor.root.kind)
                ),
                None,
            )
            detail = (
                f"; also reached from root {other.root.function} at "
                f"{other.access.path}:{other.access.line} under "
                f"{_fmt_locks(other.lockset)}"
                if other is not None
                else f"; root {anchor.root.function} runs multiple instances"
            )
            yield self.finding_at(
                anchor.access.path,
                anchor.access.line,
                anchor.access.col,
                f"{location.render()} written from {len(root_keys)} thread "
                f"root(s) with no common lock (write under "
                f"{_fmt_locks(anchor.lockset)} in {anchor.root.function}"
                f"{detail})",
            )


#: Modules whose file-handling must be durably ordered; the only ones
#: RPR001 lets open a file for appending.
_DURABILITY_MODULES = {"wal", "durable"}

_APPEND_MODES = {"a", "ab", "a+", "a+b", "ba", "ab+"}


def _call_name(node: ast.Call) -> tuple[str | None, str]:
    """(receiver-or-None, name) of a call expression."""
    func = node.func
    if isinstance(func, ast.Name):
        return None, func.id
    if isinstance(func, ast.Attribute):
        recv = func.value.id if isinstance(func.value, ast.Name) else None
        return recv, func.attr
    return None, ""


@register
class DurabilityOrdering(Rule):
    code = "RPR010"
    name = "durability-ordering"
    summary = "append/replace visible before flush+fsync in a durability module"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module.rsplit(".", 1)[-1] not in _DURABILITY_MODULES:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, node)

    def _check_function(
        self, ctx: FileContext, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        fsyncs: list[tuple[int, int]] = []
        flushes: list[tuple[int, int]] = []
        replaces: list[ast.Call] = []
        writes: list[ast.Call] = []
        has_append_handle = False
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            recv, name = _call_name(node)
            pos = (node.lineno, node.col_offset)
            if name == "fsync" and recv in (None, "os"):
                fsyncs.append(pos)
            elif name == "flush":
                flushes.append(pos)
            elif name == "replace" and recv == "os":
                replaces.append(node)
            elif name == "write" and recv is not None:
                writes.append(node)
            elif name == "open" and recv is None:
                mode = None
                if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
                    mode = node.args[1].value
                for kw in node.keywords:
                    if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                        mode = kw.value.value
                if isinstance(mode, str) and mode in _APPEND_MODES:
                    has_append_handle = True
        for rep in replaces:
            pos = (rep.lineno, rep.col_offset)
            if not any(f < pos for f in fsyncs):
                yield self.finding(
                    ctx,
                    rep,
                    "os.replace publishes a file with no os.fsync before it; "
                    "the rename can become visible while the data is still "
                    "in the page cache",
                )
        if has_append_handle and writes:
            last = max(writes, key=lambda w: (w.lineno, w.col_offset))
            pos = (last.lineno, last.col_offset)
            flushed = any(f > pos for f in flushes)
            synced = any(f > pos for f in fsyncs)
            if not (flushed and synced):
                missing = "flush()+os.fsync" if not flushed else "os.fsync"
                yield self.finding(
                    ctx,
                    last,
                    f"append-mode write is not followed by {missing} in this "
                    "function; the record is not durable when it becomes "
                    "visible to readers",
                )


_SUBPROCESS_CALLS = {"run", "Popen", "call", "check_call", "check_output"}
_ATOMIC_WRITERS = {"atomic_write_text", "atomic_write_bytes", "atomic_write_json"}


def _blocking_label(fn: FunctionInfo, callee: Callee, imports: dict[str, str]) -> str | None:
    """Human label when the call is a known blocking primitive, else None."""
    kind, name, recv = callee.kind, callee.name, callee.receiver
    if kind == "module":
        if recv == "time" and name == "sleep":
            return "time.sleep"
        if recv == "os" and name == "fsync":
            return "os.fsync"
        if recv == "subprocess" and name in _SUBPROCESS_CALLS:
            return f"subprocess.{name}"
    if kind == "name":
        dotted = imports.get(name, "")
        if name == "sleep" and dotted == "time.sleep":
            return "time.sleep"
        if name == "fsync" and dotted == "os.fsync":
            return "os.fsync"
        if name in _ATOMIC_WRITERS:
            return name
    if name == "run" and kind in {"typed", "opaque"} and recv and "processor" in recv.lower():
        return f"{recv}.run"
    return None


@register
class BlockingUnderLock(ProjectRule):
    code = "RPR011"
    name = "blocking-under-lock"
    summary = "sleep/fsync/subprocess/Processor.run while a lock is held"

    def check_project(self, project) -> Iterator[Finding]:
        graph = project.graph
        entries = project.lock_entries()
        for fn in sorted(graph.functions.values(), key=lambda f: (f.path, f.line)):
            imports = project.modules[fn.module].imports if fn.module in project.modules else {}
            for call in fn.calls:
                label = _blocking_label(fn, call.callee, imports)
                if label is None:
                    continue
                if call.lockset:
                    yield self.finding_at(
                        call.path,
                        call.line,
                        call.col,
                        f"{label} while holding {_fmt_locks(call.lockset)}; "
                        "every thread contending for the lock stalls behind it",
                    )
                    continue
                # Inside durable the fsync IS the contract; a caller
                # holding a lock across it is reported at the boundary
                # call site, not re-reported per internal line.
                if fn.module.rsplit(".", 1)[-1] == "durable":
                    continue
                entry = entries.get(fn.qualname)
                if entry is not None:
                    chain = " -> ".join(entry.chain)
                    yield self.finding_at(
                        call.path,
                        call.line,
                        call.col,
                        f"{label} in a function reachable with "
                        f"{_fmt_locks(entry.locks)} held (via {chain})",
                    )
