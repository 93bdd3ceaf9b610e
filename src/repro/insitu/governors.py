"""Pluggable power-policy governors: policy = governor × control method.

The paper sweeps *static* RAPL caps; its §VII vision is a job-level
runtime that re-decides power policy continuously.  Production stacks
(EcoFreq is the clearest example) generalize that decision into two
orthogonal pieces:

* a **governor** — a formula mapping an external *signal* sample
  (electricity price, grid CO₂ intensity, facility load) to a capacity
  fraction in ``(0, 1]``: :class:`ConstGovernor`, :class:`ListGovernor`,
  :class:`StepGovernor`, :class:`LinearGovernor`;
* a **control method** — how the fraction is applied to the socket:
  :class:`PowerCapControl` (the paper's RAPL path),
  :class:`FrequencyCapControl` (a DVFS P-state-bin ceiling), or
  :class:`DutyCycleControl` (DDCM-style clock modulation, after
  nrm-legacy's ``ddcmpolicy``).

:class:`SignalTrace` carries the input signal as a replayable JSONL
time series (with seedable synthetic generators for tests and drills),
and :class:`GovernedRuntime` drives a work profile epoch by epoch:
sample the signal, govern, apply the control setting through
:meth:`~repro.machine.simulator.Processor.run`, and record a
:class:`GovernorEpoch` per control period.  Under a
:class:`ConstGovernor` at full capacity every control method reproduces
the static path **bitwise** — the equivalence the test suite pins.

Invariants are *piecewise*: within one epoch the setting is constant,
so the static contracts (power ≤ cap + tolerance, runtime monotone in
the cap) hold per epoch and across equal-cap epochs —
:meth:`repro.core.validate.PointValidator.check_epochs` restates them
that way, and ``repro chaos --governor`` drills signal dropout, step
discontinuities, and trace truncation against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..machine.rapl import MIN_DUTY
from ..machine.simulator import Processor, RunResult
from ..machine.spec import MachineSpec
from ..obs.durable import JsonlFile
from ..obs.trace import span
from ..workload import WorkProfile

__all__ = [
    "SIGNAL_TRACE_FORMAT",
    "SignalSample",
    "SignalTrace",
    "Governor",
    "ConstGovernor",
    "ListGovernor",
    "StepGovernor",
    "LinearGovernor",
    "parse_governor",
    "ControlSetting",
    "ControlMethod",
    "PowerCapControl",
    "FrequencyCapControl",
    "DutyCycleControl",
    "CONTROL_METHODS",
    "make_control",
    "GovernorEpoch",
    "GovernedRunResult",
    "GovernedRuntime",
    "governed_caps_w",
]

SIGNAL_TRACE_FORMAT = "repro-signal-trace"
SIGNAL_TRACE_VERSION = 1
_SIGNAL_TRACE_HEADER = {"format": SIGNAL_TRACE_FORMAT, "version": SIGNAL_TRACE_VERSION}


# ---------------------------------------------------------------- signal trace
@dataclass(frozen=True)
class SignalSample:
    """One reading of the external signal (price, CO₂ intensity, ...)."""

    t_s: float
    value: float


@dataclass(frozen=True)
class SignalTrace:
    """A replayable signal time series with sample-and-hold lookup.

    Lookup semantics are deliberately dropout-tolerant: ``value_at(t)``
    returns the *last* sample at or before ``t`` (the first sample
    before the trace starts, the final sample forever after it ends).
    A decimated or truncated trace therefore still answers every query
    — the governor simply holds the stalest reading it has, exactly
    what a production policy daemon does when its signal feed drops.
    """

    samples: tuple[SignalSample, ...]
    name: str = "signal"

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError("signal trace needs at least one sample")
        times = [s.t_s for s in self.samples]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("signal samples must be in non-decreasing time order")
        for s in self.samples:
            if not (math.isfinite(s.t_s) and math.isfinite(s.value)):
                raise ValueError(f"non-finite signal sample {s}")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return self.samples[-1].t_s - self.samples[0].t_s

    def value_at(self, t_s: float) -> float:
        """Sample-and-hold: the last reading at or before ``t_s``."""
        value = self.samples[0].value
        for s in self.samples:
            if s.t_s > t_s:
                break
            value = s.value
        return value

    # -------------------------------------------------------------- variants
    def truncated(self, keep_fraction: float) -> "SignalTrace":
        """The leading ``keep_fraction`` of the samples (at least one)."""
        if not (0.0 < keep_fraction <= 1.0):
            raise ValueError("keep_fraction must be in (0, 1]")
        n = max(1, int(len(self.samples) * keep_fraction))
        return SignalTrace(self.samples[:n], name=self.name)

    def without(self, drop_indices) -> "SignalTrace":
        """The trace with the given sample indices removed (≥ 1 kept)."""
        dropped = set(int(i) for i in drop_indices)
        kept = tuple(s for i, s in enumerate(self.samples) if i not in dropped)
        if not kept:
            kept = (self.samples[0],)
        return SignalTrace(kept, name=self.name)

    # ------------------------------------------------------------ generators
    @classmethod
    def constant(
        cls, value: float, *, duration_s: float = 10.0, dt_s: float = 1.0, name: str = "const"
    ) -> "SignalTrace":
        n = max(1, int(round(duration_s / dt_s)))
        return cls(tuple(SignalSample(i * dt_s, float(value)) for i in range(n)), name=name)

    @classmethod
    def synthetic(
        cls,
        kind: str = "sine",
        *,
        seed: int = 0,
        n: int = 32,
        dt_s: float = 1.0,
        lo: float = 0.0,
        hi: float = 1.0,
        name: str | None = None,
    ) -> "SignalTrace":
        """A seeded synthetic signal: ``sine``, ``square``, or ``walk``.

        Deterministic per ``(kind, seed, n, dt_s, lo, hi)``, so drills
        and tests replay the exact same series.
        """
        if n < 1:
            raise ValueError("need at least one sample")
        if hi < lo:
            raise ValueError("need lo <= hi")
        mid, amp = (lo + hi) / 2.0, (hi - lo) / 2.0
        i = np.arange(n)
        if kind == "sine":
            values = mid + amp * np.sin(2.0 * np.pi * i / max(n - 1, 1))
        elif kind == "square":
            values = np.where((i // max(n // 4, 1)) % 2 == 0, hi, lo)
        elif kind == "walk":
            rng = np.random.default_rng(seed)
            steps = rng.normal(0.0, amp / 4.0 if amp > 0 else 1.0, size=n)
            values = np.clip(mid + np.cumsum(steps), lo, hi)
        else:
            raise ValueError(f"unknown synthetic signal kind {kind!r}")
        return cls(
            tuple(SignalSample(float(t) * dt_s, float(v)) for t, v in zip(i, values)),
            name=name if name is not None else f"{kind}-{seed}",
        )

    # ----------------------------------------------------------------- jsonl
    def to_jsonl(self, path: str | Path) -> Path:
        """Persist the trace (atomically) as header + one sample per line."""
        target = Path(path)
        header = {**_SIGNAL_TRACE_HEADER, "name": self.name, "n_samples": len(self.samples)}
        JsonlFile(target, header).write({"t_s": s.t_s, "value": s.value} for s in self.samples)
        return target

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "SignalTrace":
        """Load a trace written by :meth:`to_jsonl` (torn tail dropped)."""
        header, samples = JsonlFile(path, _SIGNAL_TRACE_HEADER).read(
            lambda doc: SignalSample(float(doc["t_s"]), float(doc["value"]))
        )
        return cls(tuple(samples), name=str(header.get("name", Path(path).stem)))


# ------------------------------------------------------------------ governors
def _check_fraction(fraction: float, origin: str) -> float:
    f = float(fraction)
    if not (0.0 < f <= 1.0) or not math.isfinite(f):
        raise ValueError(f"{origin} must be a capacity fraction in (0, 1], got {fraction}")
    return f


class Governor:
    """Maps one signal sample to a capacity fraction in ``(0, 1]``."""

    kind = "governor"

    def limit(self, signal_value: float) -> float:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstGovernor(Governor):
    """Signal-blind: always the same fraction (EcoFreq ``const:80%``)."""

    fraction: float = 1.0
    kind = "const"

    def __post_init__(self) -> None:
        _check_fraction(self.fraction, "ConstGovernor fraction")

    def limit(self, signal_value: float) -> float:
        return self.fraction

    def describe(self) -> str:
        return f"const:{self.fraction:g}"


@dataclass(frozen=True)
class ListGovernor(Governor):
    """Discrete levels: the entry whose signal value is nearest the sample.

    The float generalization of EcoFreq's named-level form
    (``list:low=max:high=0.6``): callers quantize their signal into
    representative values and the governor snaps each sample to the
    closest one — deterministic, with ties resolved toward the lower
    signal value.
    """

    levels: tuple[tuple[float, float], ...]
    kind = "list"

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("ListGovernor needs at least one (signal, fraction) level")
        for s, f in self.levels:
            if not math.isfinite(s):
                raise ValueError(f"non-finite level signal value {s}")
            _check_fraction(f, "ListGovernor fraction")

    def limit(self, signal_value: float) -> float:
        best = min(self.levels, key=lambda lv: (abs(lv[0] - signal_value), lv[0]))
        return best[1]

    def describe(self) -> str:
        body = ":".join(f"{s:g}={f:g}" for s, f in self.levels)
        return f"list:{body}"


@dataclass(frozen=True)
class StepGovernor(Governor):
    """Step function: the fraction of the highest threshold ≤ signal.

    EcoFreq ``step:100=0.7:200=0.5``: below every threshold the base
    fraction applies (full capacity by default); each crossed threshold
    replaces it.
    """

    steps: tuple[tuple[float, float], ...]
    base_fraction: float = 1.0
    kind = "step"

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("StepGovernor needs at least one (threshold, fraction) step")
        thresholds = [t for t, _ in self.steps]
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError("StepGovernor thresholds must be strictly increasing")
        _check_fraction(self.base_fraction, "StepGovernor base fraction")
        for t, f in self.steps:
            if not math.isfinite(t):
                raise ValueError(f"non-finite step threshold {t}")
            _check_fraction(f, "StepGovernor fraction")

    def limit(self, signal_value: float) -> float:
        fraction = self.base_fraction
        for threshold, f in self.steps:
            if signal_value >= threshold:
                fraction = f
            else:
                break
        return fraction

    def describe(self) -> str:
        body = ":".join(f"{t:g}={f:g}" for t, f in self.steps)
        return f"step:{body}"


@dataclass(frozen=True)
class LinearGovernor(Governor):
    """Linear interpolation between full and minimum capacity.

    EcoFreq ``linear:100:500``: at or below ``lo_signal`` the governor
    grants ``max_fraction``; at or above ``hi_signal`` it grants
    ``min_fraction``; in between it interpolates linearly.
    """

    lo_signal: float
    hi_signal: float
    min_fraction: float = 0.25
    max_fraction: float = 1.0
    kind = "linear"

    def __post_init__(self) -> None:
        if not (self.lo_signal < self.hi_signal):
            raise ValueError("LinearGovernor needs lo_signal < hi_signal")
        _check_fraction(self.min_fraction, "LinearGovernor min fraction")
        _check_fraction(self.max_fraction, "LinearGovernor max fraction")
        if self.min_fraction > self.max_fraction:
            raise ValueError("LinearGovernor needs min_fraction <= max_fraction")

    def limit(self, signal_value: float) -> float:
        t = (signal_value - self.lo_signal) / (self.hi_signal - self.lo_signal)
        t = min(max(t, 0.0), 1.0)
        return self.max_fraction - (self.max_fraction - self.min_fraction) * t

    def describe(self) -> str:
        return (
            f"linear:{self.lo_signal:g}:{self.hi_signal:g}"
            f":{self.min_fraction:g}:{self.max_fraction:g}"
        )


def _parse_fraction(text: str, origin: str) -> float:
    """``0.8`` or ``80%`` → 0.8 (validated into (0, 1])."""
    text = text.strip()
    try:
        value = float(text[:-1]) / 100.0 if text.endswith("%") else float(text)
    except ValueError:
        raise ValueError(f"{origin}: cannot parse fraction {text!r}") from None
    return _check_fraction(value, origin)


def _parse_pairs(parts: list[str], origin: str) -> tuple[tuple[float, float], ...]:
    pairs = []
    for part in parts:
        key, sep, frac = part.partition("=")
        if not sep:
            raise ValueError(f"{origin}: expected SIGNAL=FRACTION, got {part!r}")
        try:
            signal = float(key)
        except ValueError:
            raise ValueError(f"{origin}: cannot parse signal value {key!r}") from None
        pairs.append((signal, _parse_fraction(frac, origin)))
    return tuple(pairs)


def parse_governor(spec: str) -> Governor:
    """EcoFreq-style governor spec → a :class:`Governor`.

    * ``const:0.8`` (or ``const:80%``)
    * ``list:100=1.0:300=0.5``
    * ``step:100=0.7:200=0.5``
    * ``linear:100:500`` (optionally ``linear:100:500:0.3[:1.0]``)
    """
    head, _, rest = spec.strip().partition(":")
    head = head.lower()
    parts = [p for p in rest.split(":") if p] if rest else []
    if head == "const":
        return ConstGovernor(_parse_fraction(parts[0], spec) if parts else 1.0)
    if head == "list":
        return ListGovernor(_parse_pairs(parts, spec))
    if head == "step":
        return StepGovernor(_parse_pairs(parts, spec))
    if head == "linear":
        if len(parts) < 2 or len(parts) > 4:
            raise ValueError(f"{spec!r}: linear takes LO:HI[:MIN_FRAC[:MAX_FRAC]]")
        kwargs = {}
        if len(parts) >= 3:
            kwargs["min_fraction"] = _parse_fraction(parts[2], spec)
        if len(parts) == 4:
            kwargs["max_fraction"] = _parse_fraction(parts[3], spec)
        try:
            lo, hi = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError(f"{spec!r}: cannot parse linear bounds") from None
        return LinearGovernor(lo, hi, **kwargs)
    raise ValueError(
        f"unknown governor spec {spec!r}; expected const/list/step/linear"
    )


# ------------------------------------------------------------- control methods
@dataclass(frozen=True)
class ControlSetting:
    """One epoch's actuator programming, ready for ``Processor.run``."""

    control: str
    fraction: float
    cap_w: float
    f_ceiling_ghz: float | None = None
    duty_cap: float = 1.0

    def run_kwargs(self) -> dict:
        return {"f_ceiling_ghz": self.f_ceiling_ghz, "duty_cap": self.duty_cap}

    def describe(self) -> str:
        if self.control == "frequency":
            return f"frequency<={self.f_ceiling_ghz:g}GHz"
        if self.control == "duty":
            return f"duty<={self.duty_cap:g}"
        return f"power<={self.cap_w:g}W"


class ControlMethod:
    """Translates a governor fraction into one actuator's setting."""

    name = "control"

    def __init__(self, spec: MachineSpec):
        self.spec = spec

    def setting(self, fraction: float) -> ControlSetting:
        raise NotImplementedError

    def apply(self, processor: Processor, profile: WorkProfile, fraction: float) -> RunResult:
        s = self.setting(fraction)
        return processor.run(profile, s.cap_w, **s.run_kwargs())


class PowerCapControl(ControlMethod):
    """The paper's RAPL path: fraction interpolates floor → TDP."""

    name = "power"

    def setting(self, fraction: float) -> ControlSetting:
        f = _check_fraction(fraction, "power-cap fraction")
        spec = self.spec
        cap_w = spec.rapl_floor_watts + f * (spec.tdp_watts - spec.rapl_floor_watts)
        return ControlSetting(control=self.name, fraction=f, cap_w=cap_w)


class FrequencyCapControl(ControlMethod):
    """DVFS: pin the P-state scan under a frequency-bin ceiling.

    The fraction selects a bin index (fraction 1 → the turbo bin, the
    smallest fraction → the floor bin); RAPL itself stays unconstrained
    at TDP, so the *only* throttle is the pinned ceiling — which is how
    a frequency-cap policy differs from a power cap on work whose power
    is traffic- rather than frequency-bound.
    """

    name = "frequency"

    def setting(self, fraction: float) -> ControlSetting:
        f = _check_fraction(fraction, "frequency-cap fraction")
        bins = self.spec.freq_bins
        index = int(round(f * (len(bins) - 1)))
        return ControlSetting(
            control=self.name,
            fraction=f,
            cap_w=self.spec.tdp_watts,
            f_ceiling_ghz=float(bins[index]),
        )


class DutyCycleControl(ControlMethod):
    """DDCM: quantized clock-duty levels (nrm-legacy ``ddcmpolicy``).

    ``n_levels`` evenly spaced duty levels from full speed down to the
    hardware's minimum modulation (level 1 = :data:`MIN_DUTY`); the
    fraction picks the level.  RAPL stays at TDP so duty modulation is
    the only actuator.
    """

    name = "duty"

    def __init__(self, spec: MachineSpec, *, n_levels: int = 8):
        super().__init__(spec)
        if n_levels < 1 or n_levels * MIN_DUTY > 1.0 + 1e-9:
            raise ValueError(
                f"n_levels must be in [1, {int(1.0 / MIN_DUTY)}], got {n_levels}"
            )
        self.n_levels = int(n_levels)

    def setting(self, fraction: float) -> ControlSetting:
        f = _check_fraction(fraction, "duty-cycle fraction")
        level = max(1, int(round(f * self.n_levels)))
        duty = max(MIN_DUTY, level / self.n_levels)
        return ControlSetting(
            control=self.name,
            fraction=f,
            cap_w=self.spec.tdp_watts,
            duty_cap=duty,
        )


CONTROL_METHODS: dict[str, type[ControlMethod]] = {
    "power": PowerCapControl,
    "frequency": FrequencyCapControl,
    "duty": DutyCycleControl,
}


def make_control(name: str, spec: MachineSpec) -> ControlMethod:
    """Look up a control method by name (``repro chaos --control``)."""
    try:
        return CONTROL_METHODS[name](spec)
    except KeyError:
        raise ValueError(
            f"unknown control method {name!r}; expected one of {sorted(CONTROL_METHODS)}"
        ) from None


# ------------------------------------------------------------------- runtime
@dataclass(frozen=True)
class GovernorEpoch:
    """One control period: the decision taken and what the socket did."""

    epoch: int
    t_s: float              # epoch start in accumulated run time
    signal: float           # the signal sample the governor saw
    fraction: float         # the governor's capacity fraction
    control: str
    cap_w: float
    f_ceiling_ghz: float | None
    duty_cap: float
    time_s: float
    energy_j: float
    power_w: float
    freq_ghz: float
    cap_met: bool

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "t_s": self.t_s,
            "signal": self.signal,
            "fraction": self.fraction,
            "control": self.control,
            "cap_w": self.cap_w,
            "f_ceiling_ghz": self.f_ceiling_ghz,
            "duty_cap": self.duty_cap,
            "time_s": self.time_s,
            "energy_j": self.energy_j,
            "power_w": self.power_w,
            "freq_ghz": self.freq_ghz,
            "cap_met": self.cap_met,
        }


@dataclass
class GovernedRunResult:
    """Every epoch of one governed run."""

    governor: str
    control: str
    trace: str
    epochs: list[GovernorEpoch] = field(default_factory=list)

    @property
    def total_time_s(self) -> float:
        return sum(e.time_s for e in self.epochs)

    @property
    def total_energy_j(self) -> float:
        return sum(e.energy_j for e in self.epochs)

    @property
    def n_epochs(self) -> int:
        return len(self.epochs)

    def distinct_caps_w(self) -> list[float]:
        """The cap levels visited, in first-seen order (isclose-deduped)."""
        caps: list[float] = []
        for e in self.epochs:
            if not any(math.isclose(e.cap_w, c) for c in caps):
                caps.append(e.cap_w)
        return caps

    def final_setting(self) -> ControlSetting:
        if not self.epochs:
            raise ValueError("no epochs recorded")
        last = self.epochs[-1]
        return ControlSetting(
            control=last.control,
            fraction=last.fraction,
            cap_w=last.cap_w,
            f_ceiling_ghz=last.f_ceiling_ghz,
            duty_cap=last.duty_cap,
        )


class GovernedRuntime:
    """Drive a work profile epoch by epoch under a governed policy.

    Per control period: sample the signal trace at the accumulated run
    time, ask the governor for a capacity fraction, program the control
    method's setting, and execute one period of the profile closed-form.
    Each decision is wrapped in a ``governor-decision`` span; the result
    lists every epoch.
    """

    def __init__(
        self,
        processor: Processor,
        governor: Governor,
        control: ControlMethod,
        trace: SignalTrace,
    ):
        self.proc = processor
        self.governor = governor
        self.control = control
        self.trace = trace

    def decide(self, t_s: float) -> tuple[float, float, ControlSetting]:
        """(signal, fraction, setting) for the control period at ``t_s``."""
        signal = self.trace.value_at(t_s)
        fraction = self.governor.limit(signal)
        setting = self.control.setting(fraction)
        return signal, fraction, setting

    def run(self, profile: WorkProfile, n_epochs: int) -> GovernedRunResult:
        if n_epochs < 1:
            raise ValueError("need at least one epoch")
        result = GovernedRunResult(
            governor=self.governor.describe(),
            control=self.control.name,
            trace=self.trace.name,
        )
        t_s = 0.0
        for epoch in range(n_epochs):
            with span(
                "governor-decision",
                epoch=epoch,
                control=self.control.name,
                governor=self.governor.kind,
            ):
                signal, fraction, setting = self.decide(t_s)
                run = self.proc.run(profile, setting.cap_w, **setting.run_kwargs())
            result.epochs.append(
                GovernorEpoch(
                    epoch=epoch,
                    t_s=t_s,
                    signal=signal,
                    fraction=fraction,
                    control=setting.control,
                    cap_w=setting.cap_w,
                    f_ceiling_ghz=setting.f_ceiling_ghz,
                    duty_cap=setting.duty_cap,
                    time_s=run.time_s,
                    energy_j=run.energy_j,
                    power_w=run.avg_power_w,
                    freq_ghz=run.effective_freq_ghz,
                    cap_met=run.cap_met,
                )
            )
            t_s += run.time_s
        return result


def governed_caps_w(
    governor: Governor,
    trace: SignalTrace,
    spec: MachineSpec,
    *,
    n_epochs: int = 9,
    epoch_s: float = 1.0,
) -> tuple[float, ...]:
    """The cap series a power-cap policy would command over a trace.

    Samples the signal at ``n_epochs`` control-period boundaries and
    maps each through the governor and :class:`PowerCapControl`,
    deduplicating (isclose) while preserving first-seen order — the
    shape :class:`~repro.core.study.StudyConfig` wants for ``caps_w``,
    which is how ``repro sweep --governor --signal-trace`` turns a
    static cap grid into a time-varying one.
    """
    if n_epochs < 1:
        raise ValueError("need at least one epoch")
    if epoch_s <= 0:
        raise ValueError("epoch_s must be positive")
    control = PowerCapControl(spec)
    caps: list[float] = []
    for i in range(n_epochs):
        cap_w = control.setting(governor.limit(trace.value_at(i * epoch_s))).cap_w
        if not any(math.isclose(cap_w, c) for c in caps):
            caps.append(cap_w)
    return tuple(caps)
