"""Per-point power/frequency sample streams, persisted as segment lines.

The paper's Figures 4–5 are built from 100 ms RAPL/MSR samples, not
end-of-run aggregates.  The closed-form simulator and the sweep
engine's batch pricing keep per-segment aggregates only, but within a
segment the operating point is constant, so the sampler's readings are
a pure function of a run's segment records: :func:`synthesize_stream`.
This module owns that function and the file a sampled sweep leaves
next to its result store, ``<store>.samples.jsonl``::

    {"format": "repro-samples", "kind": "header", "version": 2}
    {"algorithm": "contour", "cap_w": 60.0, "segments": [["classify", 2.1, ...], ...], "size": 32}

Each line after the header holds one stored point's segment records,
each record a list in :data:`SEGMENT_FIELDS` order.
The file is a :class:`~repro.obs.durable.JsonlFile` log:
:class:`SampleWriter` appends and fsyncs one line per point, so a
killed sweep keeps the records of every point it durably stored;
:func:`read_samples` drops the torn final line such a kill can leave
and expands every line into its 100 ms sample records.  Version-1
files, which held the expanded samples themselves, are rejected on read
and on append.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import asdict, dataclass
from pathlib import Path

from .durable import JsonlFile

__all__ = [
    "SAMPLES_FORMAT",
    "SAMPLES_VERSION",
    "SAMPLE_INTERVAL_S",
    "SEGMENT_FIELDS",
    "PowerSample",
    "SampleWriter",
    "synthesize_stream",
    "samples_path_for",
    "read_samples",
    "summarize_samples",
]

SAMPLES_FORMAT = "repro-samples"
SAMPLES_VERSION = 2

#: The sampler granularity of the expanded streams (the paper's 100 ms).
SAMPLE_INTERVAL_S = 0.1

#: What a segment line stores of each segment record, in order: the
#: fields of :class:`repro.machine.simulator.SegmentRecord`.
SEGMENT_FIELDS = (
    "name",
    "f_ghz",
    "duty",
    "time_s",
    "power_w",
    "energy_j",
    "instructions",
    "llc_refs",
    "llc_misses",
    "stall_fraction",
    "cap_met",
)

_Segment = namedtuple("_Segment", SEGMENT_FIELDS)


@dataclass(frozen=True)
class PowerSample:
    """One 100 ms sampler reading, derived from MSR deltas."""

    t_s: float
    dt_s: float
    power_w: float
    f_eff_ghz: float
    instructions: float
    llc_refs: float
    llc_misses: float


def synthesize_stream(records, interval_s: float = SAMPLE_INTERVAL_S) -> list[PowerSample]:
    """Synthesize the 100 ms sampler's readings from segment records.

    Traced mode produces samples by construction; closed-form runs
    (and the sweep engine's batch pricing) only keep per-segment
    aggregates.  Within a segment the operating point is constant, so
    the sampler's readings are exactly recoverable: walk the segments,
    split each across ``interval_s`` windows, and emit one reading per
    window (plus a final partial window).  The stream's time-weighted
    mean power equals the run's average power identically, and the
    sample count is ``ceil(time_s / interval_s)`` — at least
    ``1/interval_s`` Hz over the run, the paper's Figures 4–5
    granularity.
    """
    if interval_s <= 0:
        raise ValueError("interval_s must be positive")
    samples: list[PowerSample] = []
    t = 0.0
    window_t0 = 0.0
    acc = [0.0, 0.0, 0.0, 0.0, 0.0]  # energy, f_eff*dt, instr, refs, misses

    def emit() -> None:
        dt = t - window_t0
        samples.append(
            PowerSample(
                t_s=window_t0,
                dt_s=dt,
                power_w=acc[0] / dt if dt > 0 else 0.0,
                f_eff_ghz=acc[1] / dt if dt > 0 else 0.0,
                instructions=acc[2],
                llc_refs=acc[3],
                llc_misses=acc[4],
            )
        )
        acc[:] = [0.0, 0.0, 0.0, 0.0, 0.0]

    for r in records:
        if r.time_s <= 0:
            continue
        remaining = r.time_s
        f_eff = r.f_ghz * r.duty  # what APERF/MPERF reports under throttling
        while remaining > 1e-15:
            room = window_t0 + interval_s - t
            dt = min(remaining, room)
            frac = dt / r.time_s
            acc[0] += r.power_w * dt
            acc[1] += f_eff * dt
            acc[2] += r.instructions * frac
            acc[3] += r.llc_refs * frac
            acc[4] += r.llc_misses * frac
            t += dt
            remaining -= dt
            if t >= window_t0 + interval_s - 1e-15:
                emit()
                window_t0 = t
    if t > window_t0:
        emit()
    return samples


def samples_path_for(store_path: str | Path) -> Path:
    """The sidecar samples file for a result-store path."""
    return Path(store_path).with_suffix(".samples.jsonl")


#: The header every samples file starts with.
_HEADER = {"kind": "header", "format": SAMPLES_FORMAT, "version": SAMPLES_VERSION}


class SampleWriter:
    """Append-only, crash-tolerant sink: one fsync'd segment line per point."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._log = JsonlFile(self.path, _HEADER)

    def append(self, *, algorithm: str, size: int, cap_w: float, records) -> None:
        """Durably persist one run point's segment records.

        ``records`` are :class:`~repro.machine.simulator.SegmentRecord`\\ s
        (or anything with the :data:`SEGMENT_FIELDS` attributes).  The
        line is flushed and fsynced before this returns.
        """
        self._log.append(
            {
                "algorithm": algorithm,
                "size": int(size),
                "cap_w": float(cap_w),
                "segments": [[getattr(r, f) for f in SEGMENT_FIELDS] for r in records],
            }
        )

    def reset(self) -> None:
        """Drop every stored line: the points they describe are gone."""
        self._log.remove()


def _expand(point: dict) -> list[dict]:
    """One segment line's 100 ms sample records."""
    key = {"algorithm": point["algorithm"], "size": point["size"], "cap_w": point["cap_w"]}
    stream = synthesize_stream([_Segment(*row) for row in point["segments"]])
    return [{**key, "i": i, **asdict(s)} for i, s in enumerate(stream)]


def read_samples(source: str | Path) -> tuple[dict, list[dict]]:
    """Parse a samples file into (header, records), dropping a torn tail.

    Every segment line expands into its point's 100 ms sample records,
    one dict per :class:`PowerSample` with the point's ``algorithm``,
    ``size`` and ``cap_w`` and the sample's index ``i``.
    """
    header, points = JsonlFile(source, _HEADER).read(_expand)
    return header, [r for stream in points for r in stream]


def summarize_samples(records: list[dict]) -> dict[tuple[str, int, float], dict]:
    """Per-(algorithm, size, cap) stream statistics.

    ``mean_power_w`` is time-weighted (Σ P·dt / Σ dt), matching how the
    run's aggregate ``power_w`` is defined, so the two agree for any
    complete stream; ``rate_hz`` is the achieved sampling rate.
    """
    out: dict[tuple[str, int, float], dict] = {}
    for r in records:
        key = (r["algorithm"], int(r["size"]), float(r["cap_w"]))
        agg = out.setdefault(key, {"n": 0, "duration_s": 0.0, "_p_dt": 0.0, "_f_dt": 0.0})
        agg["n"] += 1
        agg["duration_s"] += r["dt_s"]
        agg["_p_dt"] += r["power_w"] * r["dt_s"]
        agg["_f_dt"] += r["f_eff_ghz"] * r["dt_s"]
    for agg in out.values():
        dur = agg["duration_s"]
        agg["mean_power_w"] = agg.pop("_p_dt") / dur if dur > 0 else 0.0
        agg["mean_f_eff_ghz"] = agg.pop("_f_dt") / dur if dur > 0 else 0.0
        agg["rate_hz"] = agg["n"] / dur if dur > 0 else 0.0
    return out
