"""Per-point power/frequency sample streams, synthesized from segment records.

The paper's Figures 4–5 are built from 100 ms RAPL/MSR samples, not
end-of-run aggregates.  The closed-form simulator and the sweep
engine's batch pricing keep per-segment aggregates only, but within a
segment the operating point is constant, so the sampler's readings are
a pure function of a run's segment records: :func:`synthesize_stream`.
A sampled sweep keeps each point's segment records in the point's own
result-store line, and
:meth:`~repro.core.store.ResultStore.samples` expands them through
this function on read; :func:`summarize_samples` folds the expanded
records back into per-point stream statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "SAMPLE_INTERVAL_S",
    "PowerSample",
    "synthesize_stream",
    "summarize_samples",
]

#: The sampler granularity of the expanded streams (the paper's 100 ms).
SAMPLE_INTERVAL_S = 0.1


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
