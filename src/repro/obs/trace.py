"""Span tracing: lightweight JSONL traces of what the stack actually did.

The paper is a measurement study, and measurement studies live or die by
their ability to explain a single anomalous point.  This module gives
every layer of the sweep stack a shared tracing vocabulary:

* :class:`Tracer` — owns one trace (a JSONL file, or in-memory for
  tests), hands out spans and point events, thread-safe, monotonic-clock
  based so wall-clock adjustments can't produce negative durations.
* :func:`span` / :func:`event` — module-level helpers bound to the
  *default* tracer (installed with :meth:`Tracer.as_default`).  When no
  tracer is installed they are no-ops with near-zero cost, so
  instrumented hot paths (kernel executions, engine dispatch) pay
  nothing in untraced runs.
* :func:`read_trace` / :func:`summarize_trace` — the analysis half:
  parse a trace file (dropping a torn final line from a killed run)
  and aggregate per-phase time, backing ``repro trace``.

Span records nest through per-thread stacks (``parent_id``), so a
serial sweep's trace shows kernel spans *inside* their profile-job span
inside the sweep root.  Pool workers run in other processes and emit
nothing; the engine records their job spans from the parent side.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from pathlib import Path

from .durable import JsonlFile

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "Tracer",
    "get_tracer",
    "span",
    "event",
    "log_event",
    "read_trace",
    "summarize_trace",
    "render_summary",
    "logger",
]

TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1

#: The observability layer's logger: warnings that must reach a human
#: even when no tracer is active (cache corruption, dropped artifacts).
logger = logging.getLogger("repro.obs")


class _Span:
    """One in-flight span; a reentrant-unsafe, single-use context manager."""

    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent_id", "_t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id: int | None = None
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        tr = self._tracer
        self.span_id = tr._new_id()
        stack = tr._stack()
        self.parent_id = stack[-1] if stack else None
        stack.append(self.span_id)
        self._t0 = tr._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tr = self._tracer
        dur = tr._clock() - self._t0
        stack = tr._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        record = {
            "kind": "span",
            "name": self.name,
            "t_s": self._t0 - tr._t0,
            "dur_s": dur,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread": threading.current_thread().name,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        if exc is not None:
            record["error"] = repr(exc)
        tr.emit(record)
        return False


class _NullSpan:
    """Shared no-op span handed out when no tracer is configured."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


#: The header every trace file starts with.
_HEADER = {"kind": "header", "format": TRACE_FORMAT, "version": TRACE_VERSION}


class Tracer:
    """One trace: a thread-safe sink of span and event records.

    ``path=None`` keeps records in memory (:meth:`records`); a path
    makes the trace a :class:`~repro.obs.durable.JsonlFile` log, one
    record per line, each appended and flushed as it is emitted (not
    fsynced), so a killed run loses at most the line being written.
    The constructor writes a fresh file's header, or checks an existing
    file's header and cuts the torn tail a killed run left, so a resumed
    run appends whole lines after the old ones.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._clock = time.monotonic
        self._t0 = self._clock()
        self._records: list[dict] = []
        self._log = JsonlFile(self.path, _HEADER, fsync=False) if self.path is not None else None
        if self._log is not None:
            with self._lock:  # every access to the log holds the lock
                self._log.append()

    # ------------------------------------------------------------- plumbing
    def _new_id(self) -> int:
        return next(self._ids)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def emit(self, record: dict) -> None:
        """Append one record (thread-safe; flushed immediately on disk)."""
        with self._lock:
            if self._log is not None:
                self._log.append(record)
            else:
                self._records.append(record)

    # ------------------------------------------------------------ recording
    def span(self, name: str, **attrs) -> _Span:
        """Context manager timing one phase; nests via per-thread stacks."""
        return _Span(self, name, attrs)

    def record_span(self, name: str, duration_s: float, **attrs) -> None:
        """Record an already-completed span (e.g. a pool job timed remotely)."""
        stack = self._stack()
        now = self._clock()
        self.emit(
            {
                "kind": "span",
                "name": name,
                "t_s": max(0.0, now - self._t0 - duration_s),
                "dur_s": duration_s,
                "span_id": self._new_id(),
                "parent_id": stack[-1] if stack else None,
                "thread": threading.current_thread().name,
                "attrs": attrs,
            }
        )

    def event(self, name: str, **attrs) -> None:
        """Record a point-in-time event (retry, fault, quarantine, ...)."""
        stack = self._stack()
        self.emit(
            {
                "kind": "event",
                "name": name,
                "t_s": self._clock() - self._t0,
                "parent_id": stack[-1] if stack else None,
                "thread": threading.current_thread().name,
                "attrs": attrs,
            }
        )

    def records(self) -> list[dict]:
        """All records so far (reads the file when backed by one)."""
        if self.path is not None:
            return read_trace(self.path)[1]
        with self._lock:
            return list(self._records)

    # ------------------------------------------------------------- defaults
    def as_default(self) -> "_DefaultGuard":
        """Context manager installing this tracer as the module default.

        Reentrant and nestable: the previous default is restored on
        exit, so a chaos driver can install its tracer around engines
        that install the same one again.
        """
        return _DefaultGuard(self)


class _DefaultGuard:
    __slots__ = ("_tracer", "_prev")

    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        self._prev: Tracer | None = None

    def __enter__(self) -> Tracer:
        global _default
        self._prev = _default
        _default = self._tracer
        return self._tracer

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _default
        _default = self._prev
        return False


_default: Tracer | None = None


def get_tracer() -> Tracer | None:
    """The current default tracer, or None when tracing is off."""
    return _default


def span(name: str, **attrs):
    """A span on the default tracer; a shared no-op when tracing is off."""
    tracer = _default
    return tracer.span(name, **attrs) if tracer is not None else NULL_SPAN


def event(name: str, **attrs) -> None:
    """A point event on the default tracer; dropped when tracing is off."""
    tracer = _default
    if tracer is not None:
        tracer.event(name, **attrs)


def log_event(name: str, message: str, *, level: int = logging.WARNING, **attrs) -> None:
    """Warn through the ``repro.obs`` logger *and* the active trace.

    The logging half always fires (operators see it even untraced); the
    trace half records the same fact next to the spans it explains.
    """
    logger.log(level, "%s: %s", name, message)
    tracer = _default
    if tracer is not None:
        tracer.event(name, message=message, **attrs)


# ---------------------------------------------------------------- analysis
def read_trace(source: str | Path) -> tuple[dict, list[dict]]:
    """Parse a trace file into (header, records).

    A torn final line (run killed mid-write) is dropped; corruption
    anywhere else raises (:class:`~repro.obs.durable.JsonlFile`).
    """
    return JsonlFile(source, _HEADER, fsync=False).read()


def summarize_trace(records: list[dict], *, name: str | None = None) -> dict[str, dict]:
    """Per-phase aggregation of span records.

    Returns ``{span_name: {"count", "total_s", "mean_s", "max_s"}}``;
    ``name`` filters to span names containing the substring.
    """
    out: dict[str, dict] = {}
    for rec in records:
        if rec.get("kind") != "span":
            continue
        if name is not None and name not in rec.get("name", ""):
            continue
        agg = out.setdefault(
            rec["name"], {"count": 0, "total_s": 0.0, "mean_s": 0.0, "max_s": 0.0}
        )
        dur = float(rec.get("dur_s", 0.0))
        agg["count"] += 1
        agg["total_s"] += dur
        agg["max_s"] = max(agg["max_s"], dur)
    for agg in out.values():
        agg["mean_s"] = agg["total_s"] / agg["count"]
    return out


def render_summary(summary: dict[str, dict], *, n_events: int = 0) -> str:
    """Human-readable per-phase breakdown table (``repro trace``)."""
    if not summary:
        return "trace contains no spans" + (f" ({n_events} events)" if n_events else "")
    grand = sum(a["total_s"] for a in summary.values())
    lines = [f"{'phase':<24s} {'count':>6s} {'total':>10s} {'mean':>10s} {'max':>10s} {'share':>6s}"]
    for name, agg in sorted(summary.items(), key=lambda kv: -kv[1]["total_s"]):
        share = agg["total_s"] / grand if grand > 0 else 0.0
        lines.append(
            f"{name:<24s} {agg['count']:>6d} {agg['total_s']:>9.3f}s "
            f"{agg['mean_s'] * 1e3:>8.2f}ms {agg['max_s'] * 1e3:>8.2f}ms {share:>5.0%}"
        )
    lines.append(f"{len(summary)} phases, {sum(a['count'] for a in summary.values())} spans, "
                 f"{grand:.3f}s total span time" + (f", {n_events} events" if n_events else ""))
    return "\n".join(lines)
