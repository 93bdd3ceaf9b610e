"""Service-layer chaos: break the daemon, assert the queue's contract.

The sweep-level chaos driver (:mod:`repro.faults.chaos`) proves one
engine survives faults; this module proves the *service* around it
does.  A :class:`ServiceFaultInjector` perturbs the supervisor through
its duck-typed hooks:

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
* **WAL torn tail** — :func:`tear_wal_tail` cuts the final record in
  half between daemon generations, the byte state a ``kill -9`` mid-append
  leaves behind.

Every decision is the usual pure SHA-256 draw on
``(seed, site, key)``, and every fault class is *budgeted*
(``max_crashes``/``max_stalls``, one duplicate per job) so a plan can
guarantee eventual completion — which is exactly what
:func:`run_service_chaos` asserts: **no accepted job lost, none
silently duplicated, every surviving point bitwise identical to an
uninterrupted run.**
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..core.engine import SweepEngine
from ..core.store import ResultStore
from ..core.study import StudyConfig, resolve_config
from ..obs.trace import log_event
from ..serve.service import SweepService
from ..serve.wal import QueueState, WriteAheadLog
from .plan import InjectedFault

__all__ = [
    "SERVICE_PLANS",
    "ServiceChaosReport",
    "ServiceFaultInjector",
    "get_service_plan",
    "run_service_chaos",
    "tear_wal_tail",
]


@dataclass
class ServiceFaultInjector:
    """Seeded, budgeted fault decisions for the supervisor's hooks.

    Unlike :class:`~repro.faults.plan.FaultPlan` this carries counters
    (faults actually fired), so instances are per-run — build a fresh
    one per chaos drill via :func:`get_service_plan`.
    """

    name: str = "custom"
    seed: int = 20107

    job_crash_p: float = 0.0        # P(a delivery crashes mid-study)
    crash_after_groups: int = 1     # profile completions before the crash fires
    max_crashes: int = 2            # total crash budget (keeps completion reachable)
    heartbeat_stall_p: float = 0.0  # P(a delivery's heartbeats go silent)
    max_stalls: int = 1             # total stall budget (lease-expiry budget is finite)
    duplicate_delivery_p: float = 0.0  # P(a running job is redelivered once)
    torn_wal: bool = False          # cut the WAL's last record between daemons

    crashes_injected: int = 0
    stalls_injected: int = 0
    duplicates_injected: int = 0
    _dup_fired: set = field(default_factory=set, repr=False)

    def __post_init__(self) -> None:
        for f in ("job_crash_p", "heartbeat_stall_p", "duplicate_delivery_p"):
            p = getattr(self, f)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{f} must be a probability, got {p}")

    def with_seed(self, seed: int) -> "ServiceFaultInjector":
        return replace(
            self,
            seed=int(seed),
            crashes_injected=0,
            stalls_injected=0,
            duplicates_injected=0,
            _dup_fired=set(),
        )

    # ------------------------------------------------------------- decisions
    def _unit(self, site: str, key: str) -> float:
        digest = hashlib.sha256(f"service|{self.seed}|{site}|{key}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def _decide(self, site: str, key: str, p: float) -> bool:
        return p > 0.0 and self._unit(site, key) < p

    # ----------------------------------------------------- supervisor hooks
    def wrap_progress(self, job_id: str, attempt: int, progress):
        """Crash this delivery after N profile completions (maybe)."""
        if self.crashes_injected >= self.max_crashes or not self._decide(
            "job-crash", f"{job_id}|{attempt}", self.job_crash_p
        ):
            return progress
        seen = {"n": 0}

        def crashing(event: dict) -> None:
            progress(event)
            if event.get("kind") != "profile-done":
                return
            seen["n"] += 1
            if seen["n"] >= self.crash_after_groups:
                self.crashes_injected += 1
                raise InjectedFault(
                    f"service chaos: crashed delivery of {job_id} "
                    f"(attempt {attempt}, after {seen['n']} profile(s))"
                )

        return crashing

    def stall_heartbeat(self, job_id: str, worker: str) -> bool:
        """Silence this delivery's lease extensions (maybe)."""
        if self.stalls_injected >= self.max_stalls or not self._decide(
            "heartbeat-stall", f"{job_id}|{worker}", self.heartbeat_stall_p
        ):
            return False
        self.stalls_injected += 1
        return True

    def duplicate_claim(self, job_id: str) -> bool:
        """Redeliver a running job to a second worker (once per job)."""
        if job_id in self._dup_fired or not self._decide(
            "duplicate-delivery", job_id, self.duplicate_delivery_p
        ):
            return False
        self._dup_fired.add(job_id)
        self.duplicates_injected += 1
        return True


#: Named service plans, mirroring :data:`repro.faults.plan.PLANS`.
SERVICE_PLANS: dict[str, ServiceFaultInjector] = {
    "none": ServiceFaultInjector(name="none"),
    "default": ServiceFaultInjector(
        name="default",
        job_crash_p=1.0,
        max_crashes=2,
        heartbeat_stall_p=1.0,
        max_stalls=1,
        duplicate_delivery_p=0.5,
        torn_wal=True,
    ),
    "crashy": ServiceFaultInjector(
        name="crashy", job_crash_p=1.0, max_crashes=3, crash_after_groups=1
    ),
    "torn": ServiceFaultInjector(name="torn", torn_wal=True),
}


def get_service_plan(name: str) -> ServiceFaultInjector:
    """A *fresh* injector for a named service plan (counters zeroed)."""
    try:
        plan = SERVICE_PLANS[name]
    except KeyError:
        raise ValueError(
            f"unknown service plan {name!r}; expected one of {sorted(SERVICE_PLANS)}"
        ) from None
    return plan.with_seed(plan.seed)


def tear_wal_tail(path: str | Path) -> int:
    """Cut the WAL's final record in half — a crash mid-append, byte for byte.

    Returns the number of bytes removed (0 when the file is too small to
    tear).  At most one record is damaged, and every record's effect is
    re-derivable, so replay after the tear must converge to the same
    terminal state.
    """
    p = Path(path)
    data = p.read_bytes()
    body = data[:-1] if data.endswith(b"\n") else data
    start = body.rfind(b"\n") + 1
    last = body[start:]
    if len(last) < 2:
        return 0
    keep = start + len(last) // 2
    with open(p, "r+b") as fh:
        fh.truncate(keep)
    return len(data) - keep


@dataclass
class ServiceChaosReport:
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

    @property
    def survived(self) -> bool:
        """The at-least-once / no-lost-jobs / bitwise contract, in one bool."""
        return (
            self.lost == 0
            and self.failed == 0
            and self.completed == self.n_jobs
            and self.bitwise_identical
            and self.replay_consistent
        )

    def render(self) -> str:
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
        lines.append(
            "  replay converges to the same terminal state: "
            + ("yes" if self.replay_consistent else "NO")
        )
        lines.append(
            "  surviving points bitwise identical to uninterrupted run: "
            + ("yes" if self.bitwise_identical else "NO")
        )
        return "\n".join(lines)


def run_service_chaos(
    config: StudyConfig | str = "phase1",
    plan: ServiceFaultInjector | str = "default",
    *,
    spool: str | Path,
    n_jobs: int = 2,
    workers: int = 2,
    lease_s: float = 1.0,
    n_cycles: int = 2,
    seed: int = 7,
    dataset_kind: str = "blobs",
    chaos_seed: int | None = None,
    trace=None,
) -> ServiceChaosReport:
    """Submit ``n_jobs`` studies, torture the daemon, assert the contract.

    Phases: (1) an uninterrupted reference sweep establishes the
    expected points; (2) submissions are durably accepted; (3) a first
    daemon generation drains under the injector's crashes, stalls, and
    duplicate deliveries; (4) if the plan says so, the WAL's last record
    is torn in half; (5) a *fresh* service replays the WAL and drains
    whatever the tear re-opened.  The report then checks: every accepted
    job completed (none lost, none failed), duplicate effects were
    ignored rather than double-counted, a from-scratch replay converges
    to the same terminal state, and every job's store is bitwise
    identical to the reference.
    """
    t0 = time.perf_counter()
    config = resolve_config(config)
    injector = get_service_plan(plan) if isinstance(plan, str) else plan
    if chaos_seed is not None:
        injector = injector.with_seed(chaos_seed)
    spool = Path(spool)
    report = ServiceChaosReport(plan=injector.name, config=config.name)
    report.n_jobs = int(n_jobs)

    # 1. Ground truth: one uninterrupted serial sweep, in memory.
    reference = SweepEngine(
        dataset_kind=dataset_kind, n_cycles=n_cycles, seed=seed, workers=0
    ).run(config)
    ref_points = {p.key: p.to_dict() for p in reference.points}
    report.expected_points = len(ref_points)

    def service(active_injector) -> SweepService:
        return SweepService(
            spool,
            workers=workers,
            lease_s=lease_s,
            poll_interval_s=0.01,
            breaker_threshold=3,
            backoff_base_s=0.01,
            backoff_cap_s=0.25,
            trace=trace,
            injector=active_injector,
        )

    # 2. Durable submissions.
    svc = service(injector)
    job_ids: list[str] = []
    for _ in range(n_jobs):
        receipt = svc.submit(
            config, dataset_kind=dataset_kind, seed=seed, n_cycles=n_cycles,
            max_retries=max(2, injector.max_crashes),
        )
        if not receipt.accepted:
            raise RuntimeError(f"chaos submission shed: {receipt.status}")
        job_ids.append(receipt.job_id)

    # 3. First daemon generation, faults live.
    svc.run_daemon(drain=True)

    # 4. The byte state a kill -9 mid-append leaves behind.
    if injector.torn_wal:
        report.torn_bytes = tear_wal_tail(spool / "wal.jsonl")
        log_event(
            "serve-wal-torn", f"tore {report.torn_bytes} bytes off {spool}/wal.jsonl",
            bytes=report.torn_bytes,
        )

    # 5. A fresh generation replays and finishes whatever re-opened.
    svc2 = service(injector)
    final = svc2.run_daemon(drain=True)

    # ------------------------------------------------------------ verdicts
    state = svc2.state
    for job_id in job_ids:
        job = state.get(job_id)
        if job is None:
            report.lost += 1
            continue
        if job.status == "completed":
            report.completed += 1
        elif job.status == "failed":
            report.failed += 1
        else:  # still pending/running after a drained daemon: lost to limbo
            report.lost += 1
        report.lease_expirations += job.expirations
        report.retries += job.failures

    report.crashes_injected = injector.crashes_injected
    report.stalls_injected = injector.stalls_injected
    report.duplicates_injected = injector.duplicates_injected
    report.duplicates_ignored = state.duplicates_ignored
    report.wal_corrupt_lines = svc2.wal.corruption_count()
    report.breaker_final = final["breaker"]

    # Bitwise identity: every completed job's store vs. the reference.
    for job_id in job_ids:
        job = state.get(job_id)
        if job is None or job.status != "completed":
            continue
        store = ResultStore(svc2.store_path(job_id))
        points = {key: p.to_dict() for key, p in store.points.items()}
        if points != ref_points:
            report.bitwise_identical = False

    # Replay determinism: a from-scratch reader sees the same terminal state.
    fresh_wal = WriteAheadLog(spool / "wal.jsonl")
    fresh = QueueState()
    fresh.apply_all(fresh_wal.replay())
    report.replay_consistent = fresh.statuses() == state.statuses()

    report.wall_s = time.perf_counter() - t0
    return report
