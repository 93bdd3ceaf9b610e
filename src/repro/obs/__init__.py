"""Observability: tracing, metrics, sample streams, and durable files.

The telemetry layer the sweep stack reports through — built because the
source paper is a *measurement* study and an unexplainable point is a
broken reproduction.  Four cooperating pieces:

* :mod:`repro.obs.trace` — span/event tracing to JSONL
  (``span("phase", **attrs)`` context managers, thread-safe, monotonic);
* :mod:`repro.obs.metrics` — counters/gauges/histograms with JSON and
  Prometheus-text exporters;
* :mod:`repro.obs.samples` — 100 ms power/frequency sample streams per
  run point, synthesized from the segment records a sampled sweep
  keeps in each point's result-store line;
* :mod:`repro.obs.durable` — the atomic whole-file writers and
  ``JsonlFile``, the one framing and crash rule of every JSONL artifact
  but the service's write-ahead log.

This package imports nothing from the rest of ``repro``, so any layer —
the machine model, the kernels, the engine — may instrument itself and
persist files through it.
See ``docs/observability.md``.
"""

from .metrics import (
    METRICS_FORMAT,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    load_metrics,
    set_registry,
)
from .samples import summarize_samples
from .trace import (
    TRACE_FORMAT,
    Tracer,
    event,
    get_tracer,
    log_event,
    read_trace,
    render_summary,
    span,
    summarize_trace,
)

__all__ = [
    "TRACE_FORMAT",
    "Tracer",
    "get_tracer",
    "span",
    "event",
    "log_event",
    "read_trace",
    "summarize_trace",
    "render_summary",
    "METRICS_FORMAT",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "load_metrics",
    "summarize_samples",
]
