"""The chaos drills' shared scaffold, and the sweep drill behind ``repro chaos``.

The sweep, service (:mod:`repro.faults.service`) and governor
(:mod:`repro.faults.governor`) drills share one report contract,
:class:`DrillReport`, and trace their phases on the default tracer; the
first two also share :func:`reference_points`, :func:`store_points` and
:func:`tear`.

The sweep drill answers the robustness question end to end:

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
run, and every lost point is a quarantine record of the store with a
reason — never a silently wrong stored point.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from ..core.engine import SweepEngine
from ..core.profiles import ProfileCache, profile_from_ledger
from ..core.runner import DEFAULT_VIZ_CYCLES
from ..core.store import ResultStore
from ..core.study import StudyConfig, resolve_config
from ..machine.simulator import Processor
from ..machine.spec import MachineSpec
from ..obs.trace import event, get_tracer, span
from .machine import inject_machine_faults
from .plan import FaultPlan, get_plan
from .storefx import tear_tail

__all__ = ["ChaosReport", "DrillReport", "run_chaos"]


class DrillReport:
    """The report contract every drill shares.

    A report gives its :meth:`header` lines and an ordered
    :meth:`contract` of line text → bool.  :meth:`render` prints every
    contract line as ``text: yes`` or ``text: NO`` (CI greps them), and
    the drill :attr:`survived` exactly when every one is true.
    """

    def header(self) -> list[str]:
        raise NotImplementedError

    def contract(self) -> dict[str, bool]:
        raise NotImplementedError

    @property
    def survived(self) -> bool:
        return all(self.contract().values())

    def render(self) -> str:
        lines = self.header()
        lines += [f"  {text}: {'yes' if ok else 'NO'}" for text, ok in self.contract().items()]
        return "\n".join(lines)


def reference_points(
    config: StudyConfig,
    *,
    spec: MachineSpec | None = None,
    dataset_kind: str,
    n_cycles: int,
    seed: int,
) -> dict:
    """Ground truth: one serial, in-memory, fault-free sweep, as
    ``{key: point.to_dict()}``."""
    with span("chaos-reference"):
        result = SweepEngine(
            spec,
            dataset_kind=dataset_kind,
            n_cycles=n_cycles,
            seed=seed,
            workers=0,
            trace=get_tracer(),
        ).run(config)
    return {p.key: p.to_dict() for p in result.points}


def store_points(store: ResultStore) -> dict:
    """A store's completed points in :func:`reference_points`' form."""
    return {key: p.to_dict() for key, p in store.points.items()}


def tear(path: Path, event_name: str) -> int:
    """Tear ``path``'s last record in half, as a kill mid-write leaves it;
    returns the bytes torn off."""
    with span("chaos-tear-store"):
        torn = tear_tail(path)
    event(event_name, bytes=torn, store=str(path))
    return torn


@dataclass
class ChaosReport(DrillReport):
    """Survival accounting for one sweep drill."""

    plan: str
    config: str
    expected: int = 0
    completed: int = 0
    quarantined: int = 0
    lost: int = 0
    #: Lost points with no quarantine record giving a reason.
    lost_unquarantined: int = 0
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

    def header(self) -> list[str]:
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
        return lines

    def contract(self) -> dict[str, bool]:
        return {
            "every lost point quarantined with a reason": (
                self.completed + self.lost == self.expected and self.lost_unquarantined == 0
            ),
            "surviving points bitwise identical to fault-free run": self.bitwise_identical,
        }


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
    dataset_kind: str = "blobs",
    spec: MachineSpec | None = None,
    timeout_s: float | None = None,
    progress=None,
) -> ChaosReport:
    """Execute ``config`` under ``plan`` and report what survived.

    ``config`` is a phase name or an explicit grid, ``plan`` a sweep
    plan name or a :class:`FaultPlan` (``get_plan(name, seed=N)``
    re-seeds one).  The contract checked: every point surviving into the
    store is bitwise identical to a fault-free run, every lost point is
    a quarantine record of the store with a reason, and a torn store
    tail is recovered on resume.

    ``store`` must be a path (the resume pass re-opens it from disk to
    exercise recovery).  The reference sweep is serial and in-memory.
    All five phases, and both engines' spans, go to the default tracer.
    """
    t0 = time.perf_counter()
    config = resolve_config(config)
    plan = get_plan(plan) if isinstance(plan, str) else plan
    store_path = Path(store)
    report = ChaosReport(plan=plan.name, config=config.name)
    # A hang is only a fault if something times it out.
    if timeout_s is None and plan.worker_hang_p > 0:
        timeout_s = max(plan.hang_s * 0.5, 0.05)

    def engine(**kw) -> SweepEngine:
        return SweepEngine(
            spec,
            dataset_kind=dataset_kind,
            n_cycles=n_cycles,
            seed=seed,
            workers=workers,
            timeout_s=timeout_s,
            # The plan bounds faults per job, so a retry budget at least
            # that deep always recovers from injected crashes.
            max_retries=max(2, plan.max_faults_per_job + 1),
            backoff_s=0.01,
            store=store_path,
            faults=plan,
            progress=progress,
            trace=get_tracer(),
            **kw,
        )

    with span("chaos", plan=plan.name, config=config.name):
        # 1. Ground truth, no faults.
        reference = reference_points(
            config, spec=spec, dataset_kind=dataset_kind, n_cycles=n_cycles, seed=seed
        )
        report.expected = len(reference)

        # 2. Chaos pass.
        chaos_engine = engine()
        with span("chaos-pass", plan=plan.name):
            chaos_engine.run(config, resume=False)
        report.retries = chaos_engine.stats.retries
        report.faults_injected = chaos_engine.stats.faults_injected
        report.fell_back_serial = chaos_engine.stats.fell_back_serial

        # 3. Damage the store the way a mid-write kill would.
        if plan.torn_tail:
            report.torn_bytes = tear(store_path, "store-torn")

        # 4. Resume: recovery must complete exactly the missing points.
        resume_engine = engine(profile_cache=chaos_engine.profile_cache)
        with span("chaos-resume"):
            resume_engine.run(config, resume=True)
        report.resumed_points = resume_engine.stats.points_resumed
        report.retries += resume_engine.stats.retries
        report.faults_injected += resume_engine.stats.faults_injected

        # 5. Survival accounting against ground truth: quarantined
        # points are absent from the store, so it is a subset.
        final = ResultStore(store_path)
        points = store_points(final)
        report.completed = len(points)
        report.bitwise_identical = points.items() <= reference.items()
        quarantined = final.quarantined()
        report.quarantined = len({p.key for p, _ in quarantined})
        lost = reference.keys() - points.keys()
        report.lost = len(lost)
        report.lost_unquarantined = len(lost - {p.key for p, reasons in quarantined if reasons})
        report.quarantine_reasons = dict(
            Counter(r.get("code", "?") for _, reasons in quarantined for r in reasons)
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
