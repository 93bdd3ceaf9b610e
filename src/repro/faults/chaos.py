"""The chaos driver: run a sweep under a fault plan and report survival.

One chaos run answers the robustness question end to end:

1. a **fault-free reference** sweep establishes ground truth;
2. the **chaos pass** runs the same grid through the engine with the
   plan's worker crashes/hangs and sensor corruption live, streaming
   into a real store (quarantine gate armed);
3. if the plan says so, the store's tail is **torn** — the byte-level
   state a run killed mid-write leaves behind;
4. the **resume pass** re-opens the damaged store (exercising torn-tail
   recovery) and completes whatever is missing;
5. a traced **machine probe** runs the plan's sensor faults (sample
   dropout, noise, cap jitter/excursions) through the RAPL loop and
   counts what survived.

The :class:`ChaosReport` then states the contract the paper's tables
depend on: every surviving point is bitwise identical to the fault-free
run, and everything else is quarantined with a reason — never silently
wrong in the main store.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from ..core.engine import SweepEngine
from ..core.profiles import ProfileCache, profile_from_ledger
from ..core.runner import DEFAULT_VIZ_CYCLES
from ..core.store import ResultStore
from ..core.study import StudyConfig, resolve_config
from ..machine.simulator import Processor
from ..machine.spec import MachineSpec
from ..obs.trace import Tracer, event, span
from .machine import MachineFaultInjector, inject_machine_faults
from .plan import FaultPlan, get_plan
from .storefx import tear_tail

__all__ = ["ChaosReport", "run_chaos"]


@dataclass
class ChaosReport:
    """Survival accounting for one chaos run."""

    plan: str
    config: str
    expected: int = 0
    completed: int = 0
    quarantined: int = 0
    lost: int = 0
    retries: int = 0
    faults_injected: int = 0
    fell_back_serial: bool = False
    torn_bytes: int = 0
    resumed_points: int = 0
    bitwise_identical: bool = True
    samples_seen: int = 0
    samples_dropped: int = 0
    samples_noised: int = 0
    cap_excursions: int = 0
    cap_decisions: int = 0
    quarantine_reasons: dict[str, int] = field(default_factory=dict)
    wall_s: float = 0.0

    @property
    def survived(self) -> bool:
        """Did the contract hold? (survivors bitwise-sane, rest quarantined)"""
        return self.bitwise_identical and self.completed + self.lost == self.expected

    def render(self) -> str:
        lines = [
            f"chaos report — plan '{self.plan}' on {self.config} ({self.wall_s:.2f}s)",
            f"  sweep: {self.completed}/{self.expected} points completed, "
            f"{self.quarantined} quarantined, {self.lost} lost",
            f"  engine: {self.faults_injected} faults injected, {self.retries} retries, "
            f"serial fallback: {'yes' if self.fell_back_serial else 'no'}",
        ]
        if self.torn_bytes:
            lines.append(
                f"  store: torn tail of {self.torn_bytes} bytes recovered, "
                f"{self.resumed_points} points resumed"
            )
        if self.samples_seen:
            delivered = self.samples_seen - self.samples_dropped
            lines.append(
                f"  machine probe: {delivered}/{self.samples_seen} samples delivered "
                f"({self.samples_dropped} dropped, {self.samples_noised} noised), "
                f"{self.cap_excursions} cap excursions / {self.cap_decisions} decisions"
            )
        if self.quarantine_reasons:
            reasons = ", ".join(f"{c}={n}" for c, n in sorted(self.quarantine_reasons.items()))
            lines.append(f"  quarantine reasons: {reasons}")
        lines.append(
            "  surviving points bitwise identical to fault-free run: "
            + ("yes" if self.bitwise_identical else "NO")
        )
        return "\n".join(lines)


def _machine_probe(
    report: ChaosReport,
    plan: FaultPlan,
    config: StudyConfig,
    cache: ProfileCache,
    spec: MachineSpec | None,
) -> None:
    """Run the plan's sensor faults through one traced execution."""
    alg = config.algorithms[0]
    size = min(config.sizes)
    ledger = cache.get(alg, size)
    if ledger is None:
        return
    # Enough cycles that the 100 ms sampler fires a useful number of times.
    profile = profile_from_ledger(alg, size, ledger, n_cycles=20)
    processor = Processor(spec) if spec is not None else Processor()
    injector = inject_machine_faults(processor, plan)
    cap = sorted(config.caps_w)[len(config.caps_w) // 2]
    processor.run_traced(profile, cap, sample_interval_s=0.05)
    counts = injector.summary()
    report.samples_seen = counts["samples_seen"]
    report.samples_dropped = counts["samples_dropped"]
    report.samples_noised = counts["samples_noised"]
    report.cap_excursions = counts["excursions"]
    report.cap_decisions = counts["decisions"]


def run_chaos(
    config: StudyConfig | str = "phase1",
    plan: FaultPlan | str = "default",
    *,
    store: str | Path,
    workers: int | None = 0,
    n_cycles: int = DEFAULT_VIZ_CYCLES,
    seed: int = 7,
    chaos_seed: int | None = None,
    dataset_kind: str = "blobs",
    spec: MachineSpec | None = None,
    timeout_s: float | None = None,
    progress=None,
    trace: Tracer | str | os.PathLike | None = None,
) -> ChaosReport:
    """Execute ``config`` under ``plan`` and report what survived.

    ``config`` is a phase name or an explicit grid, ``plan`` a plan name
    or a :class:`FaultPlan`; ``chaos_seed`` re-seeds the plan for a
    different (still deterministic) fault schedule.  The contract
    checked: every point surviving into the store is bitwise identical
    to a fault-free run, unrecoverable points land in the quarantine
    sidecar with reasons, and a torn store tail is recovered on resume.

    ``store`` must be a path (the resume pass re-opens it from disk to
    exercise recovery).  The reference sweep is serial and in-memory.
    ``trace`` (a :class:`~repro.obs.trace.Tracer` or a path) records all
    five phases — reference sweep, chaos pass, store tear, resume pass,
    machine probe — plus both engines' spans into one trace file.
    """
    t0 = time.perf_counter()
    config = resolve_config(config)
    plan = get_plan(plan) if isinstance(plan, str) else plan
    if chaos_seed is not None:
        plan = plan.with_seed(chaos_seed)
    store_path = Path(store)
    report = ChaosReport(plan=plan.name, config=config.name)
    tracer = trace if isinstance(trace, Tracer) or trace is None else Tracer(trace)

    def engine(**kw) -> SweepEngine:
        return SweepEngine(
            spec,
            dataset_kind=dataset_kind,
            n_cycles=n_cycles,
            seed=seed,
            backoff_s=0.01,
            trace=tracer,
            **kw,
        )

    # Install the tracer as the process default for the duration so the
    # kernel spans fired inside serial engine runs land in the same file.
    with (tracer.as_default() if tracer is not None else nullcontext()):
        with span("chaos", plan=plan.name, config=config.name):
            # 1. Ground truth, no faults.
            with span("chaos-reference"):
                reference = engine(workers=0).run(config)
            ref_points = {p.key: p for p in reference.points}
            report.expected = len(ref_points)

            # A hang is only a fault if something times it out.
            if timeout_s is None and plan.worker_hang_p > 0:
                timeout_s = max(plan.hang_s * 0.5, 0.05)
            # The plan bounds faults per job, so a retry budget at least
            # that deep always recovers from injected crashes.
            max_retries = max(2, plan.max_faults_per_job + 1)

            # 2. Chaos pass.
            chaos_engine = engine(
                workers=workers,
                timeout_s=timeout_s,
                max_retries=max_retries,
                store=store_path,
                faults=plan,
                progress=progress,
            )
            with span("chaos-pass", plan=plan.name):
                chaos_engine.run(config, resume=False)
            report.retries = chaos_engine.stats.retries
            report.faults_injected = chaos_engine.stats.faults_injected
            report.fell_back_serial = chaos_engine.stats.fell_back_serial

            # 3. Damage the store the way a mid-write kill would.
            if plan.torn_tail:
                with span("chaos-tear-store"):
                    report.torn_bytes = tear_tail(store_path)
                event("store-torn", bytes=report.torn_bytes, store=str(store_path))

            # 4. Resume: recovery must complete exactly the missing points.
            resume_engine = engine(
                workers=workers,
                timeout_s=timeout_s,
                max_retries=max_retries,
                store=store_path,
                faults=plan,
                profile_cache=chaos_engine.profile_cache,
                progress=progress,
            )
            with span("chaos-resume"):
                resume_engine.run(config, resume=True)
            report.resumed_points = resume_engine.stats.points_resumed
            report.retries += resume_engine.stats.retries
            report.faults_injected += resume_engine.stats.faults_injected

            # 5. Survival accounting against ground truth.
            final = ResultStore(store_path)
            report.completed = len(final)
            report.bitwise_identical = all(
                key in ref_points and point.to_dict() == ref_points[key].to_dict()
                for key, point in final.points.items()
            )
            quarantined_keys = {p.key for p, _ in final.quarantined()}
            report.quarantined = len(quarantined_keys)
            report.lost = len(set(ref_points) - final.completed_keys())
            for _, reasons in final.quarantined():
                for r in reasons:
                    code = r.get("code", "?")
                    report.quarantine_reasons[code] = (
                        report.quarantine_reasons.get(code, 0) + 1
                    )

            # 6. Sensor-level probe (traced), if the plan has machine faults.
            if any(
                (
                    plan.cap_jitter_w,
                    plan.cap_excursion_p,
                    plan.sample_dropout_p,
                    plan.sample_noise_w,
                )
            ):
                with span("chaos-machine-probe"):
                    _machine_probe(report, plan, config, chaos_engine.profile_cache, spec)

    report.wall_s = time.perf_counter() - t0
    return report
