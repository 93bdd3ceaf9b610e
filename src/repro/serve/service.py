"""The sweep service: spool layout, client calls, and the daemon.

A :class:`SweepService` owns one *spool* directory::

    spool/
      wal.jsonl                     # the durable job queue (the IPC)
      wal.jsonl.wake                # the doorbell FIFO the daemon waits on
      stores/<job_id>.jsonl         # one fingerprinted ResultStore per job
      profiles-blobs-7.json         # the ledger cache every job shares
      service.metrics.json          # daemon metrics dump

Clients and the daemon are symmetric: both derive queue state by
replaying/polling the WAL, and a client *submission* is just an fsync'd
``submit`` record — once :meth:`SweepService.submit` returns an
accepted receipt, the job survives any crash.  The daemon tails the
same file, and the append rings the WAL's doorbell FIFO, which the
daemon waits on between passes: a submission reaches a live daemon at
once, with no second channel that carries the job.

Load shedding happens at the submission edge, in a ladder (see
``docs/robustness.md``):

1. ``queued`` — accepted;
2. ``queue-full`` — pending+running already at ``queue_limit``;
3. ``degraded`` — the circuit breaker is open (and its record is
   younger than ``breaker_cooldown_s``): the service is failing
   repeatedly, stop feeding it.

The daemon is a :class:`~repro.serve.supervisor.Supervisor` over the
spool's WAL, built by :meth:`SweepService.supervisor` from the daemon
options the service was given, under the same names; the service
itself reads only ``queue_limit``, ``breaker_cooldown_s``, ``metrics``
and ``trace``.

Studies execute through the normal :class:`~repro.core.engine.SweepEngine`
with ``resume=True`` against the job's own store, which is what makes
crash recovery *bitwise*: a resumed study recomputes only missing
points, and every recomputed point derives from the same deterministic
ledgers, so surviving points are identical to an uninterrupted run.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass
from pathlib import Path

from ..core.engine import SweepEngine
from ..core.profiles import DATASET_RECIPE
from ..core.runner import DEFAULT_VIZ_CYCLES
from ..core.study import StudyConfig
from ..obs.durable import atomic_write_json
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.trace import Tracer
from .supervisor import Supervisor
from .wal import QueueState, WriteAheadLog

__all__ = ["DEFAULT_SPOOL", "SubmitReceipt", "SweepService"]

DEFAULT_SPOOL = ".cache/serve"


@dataclass(frozen=True)
class SubmitReceipt:
    """The submission edge's answer: accepted (with a job id) or shed."""

    job_id: str | None
    status: str  # "queued" | "queue-full" | "degraded"
    queue_depth: int

    @property
    def accepted(self) -> bool:
        return self.status == "queued"

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "status": self.status,
            "accepted": self.accepted,
            "queue_depth": self.queue_depth,
        }


class SweepService:
    """Client + daemon surface over one spool directory (see module doc)."""

    def __init__(
        self,
        spool: str | Path = DEFAULT_SPOOL,
        *,
        workers: int = 2,
        lease_s: float = 30.0,
        poll_interval_s: float = 0.05,
        queue_limit: int = 16,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 60.0,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 5.0,
        metrics: MetricsRegistry | None = None,
        trace: Tracer | str | Path | None = None,
        injector=None,
    ):
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        (self.spool / "stores").mkdir(exist_ok=True)
        self.wal = WriteAheadLog(self.spool / "wal.jsonl")
        self.state = QueueState()
        self.queue_limit = int(queue_limit)
        self.breaker_cooldown_s = float(breaker_cooldown_s)
        self.metrics = metrics if metrics is not None else get_registry()
        self.tracer = trace if trace is None or isinstance(trace, Tracer) else Tracer(trace)
        self._daemon = dict(
            workers=workers,
            lease_s=lease_s,
            poll_interval_s=poll_interval_s,
            breaker_threshold=breaker_threshold,
            backoff_base_s=backoff_base_s,
            backoff_cap_s=backoff_cap_s,
            injector=injector,
        )

    # ---------------------------------------------------------------- state
    def refresh(self) -> None:
        """Fold any new WAL records into the derived queue state."""
        self.state.apply_all(self.wal.poll())

    def _breaker_open(self, now_t: float) -> bool:
        return (
            self.state.breaker_view()[0] == "open"
            and now_t - self.state.breaker_t < self.breaker_cooldown_s
        )

    # --------------------------------------------------------------- client
    def submit(
        self,
        config: StudyConfig,
        *,
        n_cycles: int = DEFAULT_VIZ_CYCLES,
        max_retries: int = 2,
    ) -> SubmitReceipt:
        """Durably enqueue one study (or shed it, per the ladder above)."""
        if not isinstance(config, StudyConfig):
            raise TypeError(
                "submit() needs an explicit StudyConfig; resolve phase names "
                "first (repro.core.study.resolve_config)"
            )
        self.refresh()
        now_t = time.time()
        counts = self.state.counts()
        depth = counts["pending"] + counts["running"]
        if self._breaker_open(now_t):
            return SubmitReceipt(None, "degraded", depth)
        if depth >= self.queue_limit:
            return SubmitReceipt(None, "queue-full", depth)
        job_id = f"job-{uuid.uuid4().hex[:12]}"
        self.wal.append(
            {
                "kind": "submit",
                "job_id": job_id,
                "spec": {
                    "study": config.to_dict(),
                    "n_cycles": int(n_cycles),
                    "max_retries": int(max_retries),
                },
                "t": now_t,
            }
        )
        self.refresh()
        return SubmitReceipt(job_id, "queued", depth + 1)

    def status(self, job_id: str) -> dict:
        self.refresh()
        job = self.state.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        return job.snapshot()

    def cancel(self, job_id: str) -> dict:
        """Cancel a pending/running job (terminal jobs are left as-is).

        Cancellation is cooperative: a delivery already running is not
        killed, but terminal states are sticky — once the ``cancel``
        record lands, a straggler ``complete`` from the running delivery
        is ignored on replay (its store file stays on disk regardless).
        """
        self.refresh()
        job = self.state.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        if not job.terminal:
            self.wal.append({"kind": "cancel", "job_id": job_id, "t": time.time()})
            self.refresh()
        return self.state.get(job_id).snapshot()

    def report(self) -> dict:
        """Service-wide snapshot: counts, breaker, damage counters, jobs."""
        self.refresh()
        counts = self.state.counts()
        return {
            "spool": str(self.spool),
            "counts": counts,
            "queue_depth": counts["pending"] + counts["running"],
            "queue_limit": self.queue_limit,
            "breaker": self.state.breaker_view()[0],
            "breaker_streak": self.state.breaker_view()[1],
            "wal_corrupt_lines": self.wal.corruption_count(),
            "duplicates_ignored": self.state.duplicates_ignored,
            "orphan_records": self.state.orphan_records,
            "jobs": self.state.job_snapshots(),
        }

    # ---------------------------------------------------------------- daemon
    def supervisor(self) -> Supervisor:
        """A daemon over this spool, built with the service's daemon options."""
        return Supervisor(
            self.wal,
            self.state,
            self._run_job,
            metrics=self.metrics,
            tracer=self.tracer,
            **self._daemon,
        )

    def run_daemon(self, *, drain: bool = False, supervisor: Supervisor | None = None) -> dict:
        """Replay the WAL, supervise until stopped (or drained), report.

        Orphaned leases from a killed daemon need no special casing:
        replay reconstructs them as ``running``, their heartbeats never
        resume, and lease expiry requeues them — each resumed study then
        continues from its fingerprinted store.
        """
        sup = supervisor if supervisor is not None else self.supervisor()
        try:
            sup.run(drain=drain)
        finally:
            self._dump_metrics()
        return self.report()

    def _dump_metrics(self) -> None:
        atomic_write_json(
            self.spool / "service.metrics.json", self.metrics.to_json(), indent=1
        )

    # ------------------------------------------------------------ execution
    def store_path(self, job_id: str) -> Path:
        return self.spool / "stores" / f"{job_id}.jsonl"

    def _run_job(self, job, progress=None) -> dict:
        spec = job.spec
        # Submit records written by earlier versions name a dataset
        # recipe: one naming another must fail, not run the study's.
        for field, value in DATASET_RECIPE.items():
            if spec.get(field, value) != value:
                raise ValueError(
                    f"job spec field {field!r} is {spec[field]!r}, not the study's "
                    f"{value!r} (dataset recipe {DATASET_RECIPE})"
                )
        config = StudyConfig.from_dict(spec["study"])
        store = self.store_path(job.job_id)
        engine = SweepEngine(
            n_cycles=int(spec.get("n_cycles", DEFAULT_VIZ_CYCLES)),
            workers=0,
            store=store,
            profile_cache=self.spool / "profiles-blobs-7.json",
            progress=progress,
            trace=self.tracer,
            metrics=self.metrics,
        )
        result = engine.run(config, resume=True)
        return {"points": len(result.points), "store": str(store)}
