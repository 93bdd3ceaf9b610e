"""The simulated processor: run a work profile under a power cap.

Two execution modes:

* :meth:`Processor.run` — closed-form: the controller's decision is
  constant within a segment (the model is stationary per segment), so
  time/energy/counters are computed directly.  Its users are the power
  governors, the in-situ runtime, and the tests, which hold the sweep
  engine's batch pricing (:class:`repro.core.pricing.BatchRepricer`)
  bitwise equal to it.
* :meth:`Processor.run_traced` — windowed: re-runs the RAPL decision
  every control window with optional measurement noise and an integral
  correction, depositing energy/counters into an MSR bank that a
  100 ms sampler reads — the paper's actual measurement loop.  With
  noise disabled the traced result converges to the closed form (a
  property the test suite checks).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs.samples import SAMPLE_INTERVAL_S, PowerSample, synthesize_stream
from ..workload import WorkProfile
from .exec_model import ExecutionModel, SegmentEval
from .msr import MsrBank
from .power import PowerModel
from .rapl import OperatingPoint, RaplController
from .spec import BROADWELL_E5_2695V4, MachineSpec

__all__ = ["SegmentRecord", "RunResult", "Processor"]


@dataclass(frozen=True)
class SegmentRecord:
    """What one segment did under the cap."""

    name: str
    f_ghz: float
    duty: float
    time_s: float
    power_w: float
    energy_j: float
    instructions: float
    llc_refs: float
    llc_misses: float
    stall_fraction: float
    cap_met: bool


@dataclass
class RunResult:
    """Aggregate outcome of executing a profile under a cap."""

    profile_name: str
    cap_watts: float
    spec: MachineSpec
    records: list[SegmentRecord]
    msr: MsrBank
    samples: list[PowerSample] = field(default_factory=list)

    @property
    def time_s(self) -> float:
        return sum(r.time_s for r in self.records)

    @property
    def energy_j(self) -> float:
        return sum(r.energy_j for r in self.records)

    @property
    def avg_power_w(self) -> float:
        t = self.time_s
        return self.energy_j / t if t > 0 else 0.0

    @property
    def instructions(self) -> float:
        return sum(r.instructions for r in self.records)

    @property
    def effective_freq_ghz(self) -> float:
        """APERF/MPERF × base — the paper's effective frequency."""
        return self.msr.effective_frequency_ghz(self.spec.f_base)

    @property
    def ipc(self) -> float:
        """The paper's IPC: INST_RETIRED.ANY / CPU_CLK_UNHALTED.REF_TSC."""
        if self.msr.clk_unhalted <= 0:
            return 0.0
        return self.msr.inst_retired / self.msr.clk_unhalted

    @property
    def ipc_core(self) -> float:
        """IPC against *actual* core cycles (APERF) instead of reference."""
        if self.msr.aperf <= 0:
            return 0.0
        return self.msr.inst_retired / self.msr.aperf

    @property
    def llc_miss_rate(self) -> float:
        """LONG_LAT_CACHE.MISS / LONG_LAT_CACHE.REF."""
        if self.msr.llc_reference <= 0:
            return 0.0
        return self.msr.llc_miss / self.msr.llc_reference

    @property
    def cap_met(self) -> bool:
        return all(r.cap_met for r in self.records)

    # ------------------------------------------------------------- sampling
    def sample_stream(self, interval_s: float = SAMPLE_INTERVAL_S) -> list[PowerSample]:
        """Synthesize the 100 ms sampler's readings from a closed-form run
        (see :func:`repro.obs.samples.synthesize_stream`)."""
        return synthesize_stream(self.records, interval_s)


class Processor:
    """One simulated socket with a RAPL controller attached."""

    def __init__(self, spec: MachineSpec = BROADWELL_E5_2695V4):
        self.spec = spec
        self.exec_model = ExecutionModel(spec)
        self.power_model = PowerModel(spec)
        self.rapl = RaplController(spec, self.power_model)
        #: Optional fault injector (``repro.faults``): each traced-mode
        #: power sample passes through ``fault_hook.filter_sample``,
        #: which may distort (noise spike) or drop (sensor dropout) it.
        #: None = every sample is delivered intact.
        self.fault_hook = None

    # ----------------------------------------------------------- closed form
    def run(
        self,
        profile: WorkProfile,
        cap_watts: float | None = None,
        *,
        f_ceiling_ghz: float | None = None,
        duty_cap: float = 1.0,
    ) -> RunResult:
        """Execute ``profile`` under ``cap_watts`` (default: TDP), closed-form.

        The scalar pricing path: the governors and the in-situ runtime
        run profiles here, and the tests use it as the oracle the sweep
        engine's batch pricing must equal bitwise.

        ``f_ceiling_ghz`` pins the controller's P-state scan under a
        DVFS frequency ceiling and ``duty_cap`` bounds the clock duty
        (DDCM); left at their defaults the run is bit-identical to the
        historical RAPL-only path — the governor control methods in
        :mod:`repro.insitu.governors` are the intended callers.
        """
        cap = self.rapl.validate_cap(cap_watts if cap_watts is not None else self.spec.tdp_watts)
        profile.validate()
        msr = MsrBank()
        records: list[SegmentRecord] = []
        for seg in profile:
            ev = self.exec_model.evaluate(seg)
            op = self.rapl.operating_point(
                ev, cap, f_ceiling_ghz=f_ceiling_ghz, duty_cap=duty_cap
            )
            records.append(self._commit(ev, op, msr))
        return RunResult(profile.name, cap, self.spec, records, msr)

    def _commit(self, ev: SegmentEval, op: OperatingPoint, msr: MsrBank) -> SegmentRecord:
        """Account a fully-executed segment into the MSR bank."""
        t = ev.time_at(op.f_ghz, duty=op.duty)
        p = op.power_w
        e = p * t
        self._deposit(ev, msr, op, fraction=1.0, dt=t, energy=e)
        return SegmentRecord(
            name=ev.segment.name,
            f_ghz=op.f_ghz,
            duty=op.duty,
            time_s=t,
            power_w=p,
            energy_j=e,
            instructions=ev.instructions,
            llc_refs=ev.memory.llc_refs,
            llc_misses=ev.memory.llc_misses,
            stall_fraction=ev.stall_fraction(op.f_ghz, duty=op.duty),
            cap_met=op.cap_met,
        )

    def _deposit(
        self,
        ev: SegmentEval,
        msr: MsrBank,
        op: OperatingPoint,
        *,
        fraction: float,
        dt: float,
        energy: float,
    ) -> None:
        n = self.spec.n_cores
        msr.aperf += op.f_ghz * 1e9 * dt * op.duty * n
        msr.mperf += self.spec.f_base * 1e9 * dt * n
        msr.clk_unhalted += self.spec.f_base * 1e9 * dt * n
        msr.inst_retired += ev.instructions * fraction
        msr.llc_reference += ev.memory.llc_refs * fraction
        msr.llc_miss += ev.memory.llc_misses * fraction
        msr.deposit_energy(energy)

    # --------------------------------------------------------------- traced
    def run_traced(
        self,
        profile: WorkProfile,
        cap_watts: float | None = None,
        *,
        window_s: float = 1e-3,
        sample_interval_s: float = SAMPLE_INTERVAL_S,
        noise_sigma_w: float = 0.0,
        seed: int = 0,
        ki: float = 0.25,
    ) -> RunResult:
        """Windowed execution with RAPL feedback and 100 ms MSR sampling.

        Each control window the controller re-picks the operating point
        using the modeled power shifted by an integral correction built
        from (optionally noisy) measurements — hardware RAPL's running
        average in miniature.
        """
        cap = self.rapl.validate_cap(cap_watts if cap_watts is not None else self.spec.tdp_watts)
        profile.validate()
        rng = np.random.default_rng(seed)
        msr = MsrBank()
        records: list[SegmentRecord] = []
        samples: list[PowerSample] = []

        t_now = 0.0
        offset = 0.0
        last_snap = msr.snapshot()
        last_sample_t = 0.0

        def emit_sample(s: PowerSample) -> None:
            if self.fault_hook is not None:
                s = self.fault_hook.filter_sample(s)
            if s is not None:
                samples.append(s)

        for seg in profile:
            ev = self.exec_model.evaluate(seg)
            remaining = 1.0
            seg_t = seg_p_dt = seg_e = 0.0
            seg_f_dt = seg_duty_dt = seg_stall_dt = 0.0
            seg_met = True
            while remaining > 1e-12:
                op = self.rapl.operating_point(ev, cap, power_offset_w=offset)
                seg_time_full = ev.time_at(op.f_ghz, duty=op.duty)
                dt = min(window_s, remaining * seg_time_full)
                frac = dt / seg_time_full
                remaining -= frac
                energy = op.power_w * dt
                self._deposit(ev, msr, op, fraction=frac, dt=dt, energy=energy)

                measured = op.power_w + (rng.normal(0.0, noise_sigma_w) if noise_sigma_w else 0.0)
                err = measured - cap
                # Integral action: push the offset up when over, bleed
                # it away when under.
                offset = float(np.clip(offset + ki * err if err > 0 else offset * 0.9, 0.0, 30.0))

                seg_t += dt
                seg_e += energy
                seg_p_dt += op.power_w * dt
                seg_f_dt += op.f_ghz * dt
                seg_duty_dt += op.duty * dt
                seg_stall_dt += ev.stall_fraction(op.f_ghz, duty=op.duty) * dt
                seg_met = seg_met and op.cap_met
                t_now += dt

                if t_now - last_sample_t >= sample_interval_s:
                    emit_sample(self._make_sample(last_snap, msr, last_sample_t, t_now))
                    last_snap = msr.snapshot()
                    last_sample_t = t_now

            if seg_t > 0:
                records.append(
                    SegmentRecord(
                        name=seg.name,
                        f_ghz=seg_f_dt / seg_t,
                        duty=seg_duty_dt / seg_t,
                        time_s=seg_t,
                        power_w=seg_p_dt / seg_t,
                        energy_j=seg_e,
                        instructions=ev.instructions,
                        llc_refs=ev.memory.llc_refs,
                        llc_misses=ev.memory.llc_misses,
                        stall_fraction=seg_stall_dt / seg_t,
                        cap_met=seg_met,
                    )
                )

        if t_now > last_sample_t:
            emit_sample(self._make_sample(last_snap, msr, last_sample_t, t_now))
        return RunResult(profile.name, cap, self.spec, records, msr, samples)

    def _make_sample(
        self, before: MsrBank, after: MsrBank, t0: float, t1: float
    ) -> PowerSample:
        dt = t1 - t0
        de = MsrBank.energy_delta_j(before.pkg_energy_status, after.pkg_energy_status)
        d_aperf = after.aperf - before.aperf
        d_mperf = after.mperf - before.mperf
        f_eff = (d_aperf / d_mperf) * self.spec.f_base if d_mperf > 0 else 0.0
        return PowerSample(
            t_s=t0,
            dt_s=dt,
            power_w=de / dt if dt > 0 else 0.0,
            f_eff_ghz=f_eff,
            instructions=after.inst_retired - before.inst_retired,
            llc_refs=after.llc_reference - before.llc_reference,
            llc_misses=after.llc_miss - before.llc_miss,
        )
