"""Chaos drills for signal-driven power policies (``repro chaos --governor``).

A governed run adds a new failure surface on top of the sweep stack: the
*signal feed*.  Production policy daemons lose price/CO₂ samples, see
step discontinuities when a provider re-bases its series, and run off
the end of stale forecasts.  These drills inject exactly those failures
into a :class:`~repro.insitu.governors.SignalTrace` and assert the
contract that makes governed results publishable:

* every epoch still satisfies the static invariants *piecewise*
  (:meth:`~repro.core.validate.PointValidator.check_epochs`) — power
  under its epoch cap, runtime monotone in granted capacity, equal
  settings agreeing bitwise;
* every decision stays inside the governor's declared range (fractions
  in ``(0, 1]``, caps inside the RAPL window);
* the clean run is deterministic — replaying it reproduces every epoch
  bitwise.

Degraded *performance* is allowed (a stale sample means a stale cap);
degraded *sanity* is not.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..cloverleaf import step_profile
from ..core.validate import PointValidator
from ..insitu.governors import (
    GovernedRuntime,
    Governor,
    SignalSample,
    SignalTrace,
    make_control,
    parse_governor,
)
from ..machine.simulator import Processor
from ..machine.spec import MachineSpec
from ..obs.trace import event, span
from .chaos import DrillReport
from .plan import GovernorFaultPlan, get_plan

__all__ = ["GovernorChaosReport", "run_governor_chaos"]


@dataclass
class GovernorChaosReport(DrillReport):
    """Contract accounting for one governor chaos run."""

    plan: str
    governor: str
    control: str
    n_epochs: int = 0
    decisions: int = 0
    samples_total: int = 0
    samples_dropped: int = 0
    truncated_to: int = 0
    step_jump: float = 0.0
    #: Per-drill invariant violation counts (0 everywhere = survival).
    violations: dict[str, int] = field(default_factory=dict)
    out_of_range_decisions: int = 0
    bitwise_identical: bool = True
    wall_s: float = 0.0

    def header(self) -> list[str]:
        lines = [
            f"governor chaos report — plan '{self.plan}', governor {self.governor}, "
            f"control {self.control} ({self.wall_s:.2f}s)",
            f"  drills: {len(self.violations)} × {self.n_epochs} epochs, "
            f"{self.decisions} decisions",
            f"  signal: {self.samples_dropped}/{self.samples_total} samples dropped, "
            f"step jump {self.step_jump:g}, truncated to {self.truncated_to} samples",
        ]
        for drill, n in self.violations.items():
            lines.append(f"  {drill}: {n} invariant violation(s)")
        if self.out_of_range_decisions:
            lines.append(f"  {self.out_of_range_decisions} decision(s) out of range")
        return lines

    def contract(self) -> dict[str, bool]:
        return {
            "clean replay bitwise identical": self.bitwise_identical,
            "governor invariants intact under chaos": (
                self.out_of_range_decisions == 0
                and all(n == 0 for n in self.violations.values())
            ),
        }


def _out_of_range(epochs, spec: MachineSpec) -> int:
    """Decisions outside the governor/control contract."""
    bad = 0
    for e in epochs:
        frac_ok = 0.0 < e.fraction <= 1.0
        cap_ok = spec.rapl_floor_watts - 1e-9 <= e.cap_w <= spec.tdp_watts + 1e-9
        duty_ok = 0.0 < e.duty_cap <= 1.0
        if not (frac_ok and cap_ok and duty_ok):
            bad += 1
    return bad


def run_governor_chaos(
    plan: GovernorFaultPlan | str = "default",
    *,
    governor: str | Governor = "step:100=0.7:200=0.5",
    control: str = "power",
    spec: MachineSpec | None = None,
    n_epochs: int = 10,
    n_cells: int = 32**3,
    n_steps: int = 60,
) -> GovernorChaosReport:
    """Run the signal-feed drills and report whether the contract held.

    Four passes over the same work profile and governed policy:

    1. **reference** — the clean trace;
    2. **signal-dropout** — the plan's deterministic sample holes;
    3. **step-discontinuity** — the plan's jump added to the second half;
    4. **trace-truncation** — only the leading ``truncate_frac`` kept.

    Every pass's epochs go through
    :meth:`PointValidator.check_epochs <repro.core.validate.PointValidator.check_epochs>`
    and the decision-range check; finally the reference is replayed and
    must reproduce bitwise.  ``plan`` is a governor plan name or a
    :class:`~repro.faults.plan.GovernorFaultPlan`.  The passes are spans
    on the default tracer.
    """
    t0 = time.perf_counter()
    plan = get_plan(plan, "governor") if isinstance(plan, str) else plan
    proc = Processor(spec) if spec is not None else Processor()
    gov = parse_governor(governor) if isinstance(governor, str) else governor
    ctrl = make_control(control, proc.spec)
    validator = PointValidator(proc.spec)
    profile = step_profile(n_cells, n_steps)

    report = GovernorChaosReport(
        plan=plan.name, governor=gov.describe(), control=ctrl.name, n_epochs=n_epochs
    )

    # Scale the trace so the signal actually moves across the run: one
    # sample per full-speed epoch, with enough samples that throttled
    # (slower) epochs still find readings ahead of them.
    epoch_s = proc.run(profile, proc.spec.tdp_watts).time_s
    base = SignalTrace.synthetic(
        "walk",
        seed=plan.seed,
        n=max(4 * n_epochs, 16),
        dt_s=epoch_s,
        lo=50.0,
        hi=250.0,
        name=f"chaos-{plan.name}",
    )
    report.samples_total = len(base)

    half = len(base.samples) // 2
    jumped = SignalTrace(
        tuple(
            SignalSample(s.t_s, s.value + (plan.step_jump if i >= half else 0.0))
            for i, s in enumerate(base.samples)
        ),
        name=base.name + "+jump",
    )
    drop = plan.dropout_indices(len(base))
    report.samples_dropped = len(drop)
    holey = base.without(drop)
    trunc = base.truncated(plan.truncate_frac)
    report.truncated_to = len(trunc)
    report.step_jump = plan.step_jump

    drills = [
        ("reference", base),
        ("signal-dropout", holey),
        ("step-discontinuity", jumped),
        ("trace-truncation", trunc),
    ]
    reference_epochs: list[dict] = []
    with span("governor-chaos", plan=plan.name, control=ctrl.name):
        for drill, trace in drills:
            with span("governor-drill", drill=drill, trace=trace.name):
                result = GovernedRuntime(proc, gov, ctrl, trace).run(profile, n_epochs)
            bad = validator.check_epochs(result.epochs)
            report.violations[drill] = sum(len(v) for v in bad.values())
            report.out_of_range_decisions += _out_of_range(result.epochs, proc.spec)
            report.decisions += result.n_epochs
            event(
                "governor-drill-done",
                drill=drill,
                violations=report.violations[drill],
                distinct_caps=len(result.distinct_caps_w()),
            )
            if drill == "reference":
                reference_epochs = [e.to_dict() for e in result.epochs]

        # Determinism: the clean run must replay bitwise.
        with span("governor-drill", drill="replay", trace=base.name):
            replay = GovernedRuntime(proc, gov, ctrl, base).run(profile, n_epochs)
        report.decisions += replay.n_epochs
        report.bitwise_identical = [e.to_dict() for e in replay.epochs] == reference_epochs

    report.wall_s = time.perf_counter() - t0
    return report
