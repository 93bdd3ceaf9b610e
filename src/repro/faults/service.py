"""Service-layer chaos: break the daemon, assert the queue's contract.

The sweep drill (:mod:`repro.faults.chaos`) proves one engine survives
faults; this drill proves the *service* around it does.  A
:class:`~repro.faults.plan.ServiceFaultInjector` perturbs the
supervisor through its duck-typed hooks:

* **worker crash mid-job** — ``wrap_progress`` raises an
  :class:`~repro.faults.plan.InjectedFault` after ``crash_after_groups``
  profile completions, killing the delivery partway through a study
  (the retry must *resume* the job's store, not recompute it);
* **heartbeat stall** — ``stall_heartbeat`` suppresses a delivery's
  lease extensions, forcing lease expiry and reclamation while the
  original worker is still running (at-least-once delivery, duplicate
  ``complete`` ignored);
* **duplicate delivery** — ``duplicate_claim`` hands a running job to a
  second worker outright;
* **WAL torn tail** — :func:`~repro.faults.chaos.tear` cuts the final
  record in half between daemon generations, the byte state a
  ``kill -9`` mid-append leaves behind.

Every decision is the usual pure SHA-256 draw on
``(seed, site, key)``, keyed on the job's index among the drill's
submissions (and the delivery's attempt), never on its random id, and
every fault class is *budgeted*
(``max_crashes``/``max_stalls``, one duplicate per job) so a plan can
guarantee eventual completion — which is exactly what
:func:`run_service_chaos` asserts: **no accepted job lost, none
silently duplicated, every surviving point bitwise identical to an
uninterrupted run.**
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path

from ..core.store import ResultStore
from ..core.study import StudyConfig, resolve_config
from ..obs.trace import get_tracer, span
from ..serve.service import SweepService
from ..serve.wal import QueueState, WriteAheadLog
from .chaos import DrillReport, reference_points, store_points, tear
from .plan import ServiceFaultInjector, get_plan

__all__ = ["ServiceChaosReport", "run_service_chaos"]


@dataclass
class ServiceChaosReport(DrillReport):
    """Contract accounting for one service chaos drill."""

    plan: str
    config: str
    n_jobs: int = 0
    completed: int = 0
    failed: int = 0
    lost: int = 0
    expected_points: int = 0
    crashes_injected: int = 0
    stalls_injected: int = 0
    duplicates_injected: int = 0
    duplicates_ignored: int = 0
    lease_expirations: int = 0
    retries: int = 0
    torn_bytes: int = 0
    wal_corrupt_lines: int = 0
    replay_consistent: bool = True
    bitwise_identical: bool = True
    breaker_final: str = "closed"
    wall_s: float = 0.0

    def header(self) -> list[str]:
        lines = [
            f"service chaos report — plan '{self.plan}' on {self.config} "
            f"({self.wall_s:.2f}s)",
            f"  jobs: {self.completed}/{self.n_jobs} completed, "
            f"{self.failed} failed, {self.lost} lost",
            f"  injected: {self.crashes_injected} crashes, "
            f"{self.stalls_injected} heartbeat stalls, "
            f"{self.duplicates_injected} duplicate deliveries",
            f"  queue: {self.retries} retries, {self.lease_expirations} lease "
            f"expirations, {self.duplicates_ignored} duplicate records ignored, "
            f"breaker {self.breaker_final}",
        ]
        if self.torn_bytes:
            lines.append(
                f"  wal: torn tail of {self.torn_bytes} bytes recovered, "
                f"{self.wal_corrupt_lines} corrupt line(s) skipped"
            )
        return lines

    def contract(self) -> dict[str, bool]:
        return {
            "every accepted job completed": (
                self.lost == 0 and self.failed == 0 and self.completed == self.n_jobs
            ),
            "replay converges to the same terminal state": self.replay_consistent,
            "surviving points bitwise identical to uninterrupted run": self.bitwise_identical,
        }


def run_service_chaos(
    config: StudyConfig | str = "phase1",
    plan: ServiceFaultInjector | str = "default",
    *,
    spool: str | Path,
    n_jobs: int = 2,
    workers: int = 2,
    lease_s: float = 1.0,
    n_cycles: int = 2,
) -> ServiceChaosReport:
    """Submit ``n_jobs`` studies, torture the daemon, assert the contract.

    Phases: (1) an uninterrupted reference sweep establishes the
    expected points; (2) submissions are durably accepted and a first
    daemon generation drains under the injector's crashes, stalls, and
    duplicate deliveries; (3) if the plan says so, the WAL's last record
    is torn in half; (4) a *fresh* service replays the WAL and drains
    whatever the tear re-opened.  The report then checks: every accepted
    job completed (none lost, none failed), duplicate effects were
    ignored rather than double-counted, a from-scratch replay converges
    to the same terminal state, and every job's store is bitwise
    identical to the reference.

    ``plan`` is a service plan name or a :class:`ServiceFaultInjector`;
    the drill fires a fresh copy of it, so the caller's counters stay
    untouched.  Every phase is a span on the default tracer, under a
    ``service-chaos`` root, and both daemon generations trace to it.
    """
    t0 = time.perf_counter()
    config = resolve_config(config)
    injector = get_plan(plan, "service") if isinstance(plan, str) else replace(plan)
    spool = Path(spool)
    report = ServiceChaosReport(plan=injector.name, config=config.name, n_jobs=int(n_jobs))

    def service() -> SweepService:
        return SweepService(
            spool,
            workers=workers,
            lease_s=lease_s,
            poll_interval_s=0.01,
            breaker_threshold=3,
            backoff_base_s=0.01,
            backoff_cap_s=0.25,
            trace=get_tracer(),
            injector=injector,
        )

    with span("service-chaos", plan=injector.name, config=config.name):
        # 1. Ground truth: one uninterrupted serial sweep, in memory.
        reference = reference_points(config, n_cycles=n_cycles)
        report.expected_points = len(reference)

        # 2. Durable submissions, then a first daemon generation, faults live.
        with span("chaos-pass", plan=injector.name):
            svc = service()
            job_ids: list[str] = []
            for _ in range(n_jobs):
                receipt = svc.submit(
                    config, n_cycles=n_cycles, max_retries=max(2, injector.max_crashes)
                )
                if not receipt.accepted:
                    raise RuntimeError(f"chaos submission shed: {receipt.status}")
                job_ids.append(receipt.job_id)
            injector.order_jobs(job_ids)
            svc.run_daemon(drain=True)

        # 3. The byte state a kill -9 mid-append leaves behind.
        if injector.torn_wal:
            report.torn_bytes = tear(spool / "wal.jsonl", "serve-wal-torn")

        # 4. A fresh generation replays and finishes whatever re-opened.
        with span("chaos-resume"):
            svc2 = service()
            final = svc2.run_daemon(drain=True)

        # ---------------------------------------------------------- verdicts
        state = svc2.state
        for job_id in job_ids:
            job = state.get(job_id)
            if job is None:
                report.lost += 1
                continue
            report.lease_expirations += job.expirations
            report.retries += job.failures
            if job.status == "completed":
                report.completed += 1
                # Bitwise identity: the job's store vs. the reference.
                if store_points(ResultStore(svc2.store_path(job_id))) != reference:
                    report.bitwise_identical = False
            elif job.status == "failed":
                report.failed += 1
            else:  # still pending/running after a drained daemon: lost to limbo
                report.lost += 1

        report.crashes_injected = injector.crashes_injected
        report.stalls_injected = injector.stalls_injected
        report.duplicates_injected = injector.duplicates_injected
        report.duplicates_ignored = state.duplicates_ignored
        report.wal_corrupt_lines = svc2.wal.corruption_count()
        report.breaker_final = final["breaker"]

        # Replay determinism: a from-scratch reader sees the same terminal state.
        fresh = QueueState()
        fresh.apply_all(WriteAheadLog(spool / "wal.jsonl").replay())
        report.replay_consistent = fresh.statuses() == state.statuses()

    report.wall_s = time.perf_counter() - t0
    return report
