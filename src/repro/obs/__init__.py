"""Observability: tracing, metrics, sample streams, and run manifests.

The telemetry layer the sweep stack reports through — built because the
source paper is a *measurement* study and an unexplainable point is a
broken reproduction.  Five cooperating pieces:

* :mod:`repro.obs.trace` — span/event tracing to JSONL
  (``span("phase", **attrs)`` context managers, thread-safe, monotonic);
* :mod:`repro.obs.metrics` — counters/gauges/histograms with JSON and
  Prometheus-text exporters;
* :mod:`repro.obs.samples` — 100 ms power/frequency sample streams per
  run point, stored as one segment line per point in
  ``<store>.samples.jsonl`` and expanded on read;
* :mod:`repro.obs.manifest` — the atomic per-run provenance record
  (``<store>.manifest.json``);
* :mod:`repro.obs.durable` — the atomic whole-file writers and
  ``JsonlFile``, the one framing and crash rule of every JSONL artifact
  but the service's write-ahead log.

This package imports nothing from the rest of ``repro`` at module scope
(manifest defers its one upward import), so any layer — the machine
model, the kernels, the engine — may instrument itself and persist
files through it.
See ``docs/observability.md``.
"""

from .manifest import (
    MANIFEST_FORMAT,
    build_manifest,
    manifest_path_for,
    read_manifest,
    write_manifest,
)
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
from .samples import (
    SAMPLES_FORMAT,
    SampleWriter,
    read_samples,
    samples_path_for,
    summarize_samples,
)
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
    "SAMPLES_FORMAT",
    "SampleWriter",
    "samples_path_for",
    "read_samples",
    "summarize_samples",
    "MANIFEST_FORMAT",
    "build_manifest",
    "manifest_path_for",
    "read_manifest",
    "write_manifest",
]
