"""Parallel, resumable sweep-execution engine.

The paper's Phase 3 grid is 288 configurations, but only the 32
(algorithm, size) pairs cost real work — each one executes the actual
visualization algorithm to record its op-count ledger.  The 9 power
caps per pair are repriced from that ledger on the simulated socket, in
one :class:`~repro.core.pricing.BatchRepricer` pass per pair.  The
engine exploits exactly that structure:

1. decompose a :class:`~repro.core.study.StudyConfig` into independent
   *profile jobs*, one per (algorithm, size) pair that is neither fully
   present in the result store nor ledger-cached;
2. fan the profile jobs out across a ``ProcessPoolExecutor`` (chunked
   scheduling window, per-job timeout, bounded retry with exponential
   backoff, graceful degradation to serial execution when the pool
   itself fails);
3. reprice a pair's missing caps in one batch pass in the parent
   process and stream each completed
   :class:`~repro.core.runner.RunPoint` into a
   :class:`~repro.core.store.ResultStore`, so a killed or extended
   sweep resumes from exactly the points already on disk.

Both the serial and the parallel path build profiles from the op-count
ledger through :func:`~repro.core.profiles.profile_from_ledger`, so the
engine's points are bitwise identical regardless of worker count, shard
fan-out, completion order, or how many times the sweep was interrupted
(``tests/golden/runpoints.json`` pins them).

Two robustness layers guard the pipeline:

* every completed point passes the invariant gate
  (:mod:`repro.core.validate`) before it reaches the store — violating
  points become quarantine records of the store, with reasons, counted
  in :class:`EngineStats`, and excluded from the result instead of
  aborting the sweep;
* a ``faults`` plan (:mod:`repro.faults`) injects deterministic worker
  crashes, hangs, and sensor corruption, exercising the retry/timeout/
  fallback/quarantine paths for real (``repro chaos``).
"""

from __future__ import annotations

import os
import pickle
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import asdict, dataclass, replace

from ..machine.spec import BROADWELL_E5_2695V4, MachineSpec
from ..obs.durable import atomic_write_json
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.trace import NULL_SPAN, Tracer
from .backoff import retry_backoff
from .pricing import BatchRepricer
from .profiles import (
    ProfileCache,
    merge_shard_ledgers,
    run_algorithm_ledger,
    run_algorithm_ledger_shard,
    supports_sharding,
)
from .runner import DEFAULT_VIZ_CYCLES, StudyResult
from .store import ResultStore, sweep_fingerprint
from .study import StudyConfig
from .validate import PointValidator

__all__ = [
    "ProfileJob",
    "ShardTask",
    "EngineStats",
    "SweepError",
    "SweepInterrupted",
    "SweepEngine",
    "execute_profile_job",
    "execute_shard_task",
]


#: Upper bound on a single retry delay.
BACKOFF_CAP_S = 5.0


class SweepError(RuntimeError):
    """A profile job failed after exhausting its retry budget."""


class SweepInterrupted(RuntimeError):
    """A cooperative stop, raised from a ``progress`` callback.

    The supervised service's cancel/shutdown path: its callback raises
    this at the next reported event.  Handled exactly like
    ``KeyboardInterrupt``: the store is fsynced first, so re-running
    with the same store resumes from every persisted point.
    """


@dataclass(frozen=True)
class ProfileJob:
    """One real algorithm execution: the unit of parallel work."""

    algorithm: str
    size: int
    dataset_kind: str
    seed: int


def execute_profile_job(job: ProfileJob) -> dict[str, float]:
    """Worker-process body: run the algorithm, return its op ledger.

    Module-level so it pickles into pool workers; returns the ledger
    (a small dict of floats) rather than the profile to keep IPC cheap.
    """
    return run_algorithm_ledger(
        job.algorithm, job.size, dataset_kind=job.dataset_kind, seed=job.seed
    )


@dataclass(frozen=True)
class ShardTask:
    """One k-span of a large profile job: the unit of sharded pool work.

    Profile jobs at or above ``SweepEngine.shard_min_size`` for
    shard-capable algorithms are split into ``n_shards`` of these — each
    worker runs :meth:`~repro.viz.base.Filter.apply_shard` over its span
    and returns a partial ledger; the parent merges the spans in
    ascending shard order, reproducing the serial ledger bitwise.
    """

    algorithm: str
    size: int
    dataset_kind: str
    seed: int
    shard: int
    n_shards: int


def execute_shard_task(task: ShardTask) -> dict[str, float]:
    """Worker-process body for one shard: partial ledger of its k-span."""
    return run_algorithm_ledger_shard(
        task.algorithm,
        task.size,
        task.shard,
        task.n_shards,
        dataset_kind=task.dataset_kind,
        seed=task.seed,
    )


@dataclass
class EngineStats:
    """What one :meth:`SweepEngine.run` actually did: a fold over the
    events the run reported (:meth:`fold`)."""

    profile_jobs_run: int = 0
    profile_jobs_cached: int = 0
    shard_tasks_run: int = 0
    groups_skipped: int = 0
    points_computed: int = 0
    points_resumed: int = 0
    points_quarantined: int = 0
    retries: int = 0
    faults_injected: int = 0
    fell_back_serial: bool = False
    interrupted: bool = False
    wall_s: float = 0.0
    #: What the pricing passes stand for in RAPL-controller terms: one
    #: decision per (segment, cap priced), and the throttling
    #: (no P-state fits) ones among them.
    rapl_decisions: int = 0
    rapl_throttle_decisions: int = 0

    @property
    def throughput_pts_s(self) -> float:
        done = self.points_computed + self.points_resumed
        return done / self.wall_s if self.wall_s > 0 else 0.0

    def fold(self, event: dict) -> None:
        """Account one event of the run (a ``progress`` event dict)."""
        kind = event["kind"]
        if kind == "profile-done":
            self.profile_jobs_run += 1
        elif kind == "profile-cached":
            self.profile_jobs_cached += 1
        elif kind == "shard-done":
            self.shard_tasks_run += 1
        elif kind == "group-skipped":
            self.groups_skipped += 1
        elif kind == "points-resumed":
            self.points_resumed += event["points"]
        elif kind == "group-priced":
            self.points_computed += event["computed"]
            self.rapl_decisions += event["rapl_decisions"]
            self.rapl_throttle_decisions += event["rapl_throttle_decisions"]
        elif kind == "point-quarantined":
            self.points_quarantined += 1
        elif kind == "retry":
            self.retries += 1
        elif kind == "fault-injected":
            self.faults_injected += 1
        elif kind == "serial-fallback":
            self.fell_back_serial = True
        elif kind == "interrupted":
            self.interrupted = True
            self.wall_s = event["wall_s"]
        elif kind == "summary":
            self.wall_s = event["wall_s"]


#: The registry counter each :class:`EngineStats` count is published to:
#: (field, metric name, help, labels).  Shard tasks are sub-units of
#: "executed" jobs (a merged group counts once under executed); the
#: sharded label exposes the fan-out width a sweep actually achieved.
_JOBS = ("repro_profile_jobs_total", "profile jobs by source")
_POINTS = ("repro_points_total", "run points by outcome")
_COUNTERS = (
    ("profile_jobs_run", *_JOBS, {"source": "executed"}),
    ("profile_jobs_cached", *_JOBS, {"source": "ledger-cache"}),
    ("shard_tasks_run", *_JOBS, {"source": "sharded"}),
    ("points_computed", *_POINTS, {"outcome": "computed"}),
    ("points_resumed", *_POINTS, {"outcome": "resumed"}),
    ("points_quarantined", *_POINTS, {"outcome": "quarantined"}),
    ("retries", "repro_retries_total", "profile-job retry attempts", {}),
    ("faults_injected", "repro_faults_injected_total", "faults injected by the active plan", {}),
    ("rapl_decisions", "repro_rapl_decisions_total", "RAPL operating-point decisions", {}),
    (
        "rapl_throttle_decisions",
        "repro_rapl_throttle_decisions_total",
        "RAPL decisions that fell back to duty-cycle throttling",
        {},
    ),
)

#: The ``summary`` event's names for the stats fields it has always
#: carried under another name; every other field keeps its own.
_SUMMARY_KEYS = {
    "points_computed": "computed",
    "points_resumed": "resumed",
    "points_quarantined": "quarantined",
    "profile_jobs_run": "jobs_run",
    "profile_jobs_cached": "jobs_cached",
}


class _PoolFailure(Exception):
    """Infrastructure (not job) failure: degrade to serial execution."""


class SweepEngine:
    """Decompose, parallelize, and persist a study sweep.

    Parameters
    ----------
    spec:
        Machine to simulate (default: the study's Broadwell socket).
    workers:
        Process-pool width for profile jobs.  ``None`` auto-sizes to the
        CPU count; ``0`` or ``1`` executes serially in-process.
    timeout_s:
        Per-profile-job wall-clock budget in pool mode (None = no limit).
    max_retries:
        Extra attempts per failed profile job before the sweep aborts.
    backoff_s:
        Base of the retry backoff.  Delays follow
        :func:`~repro.core.backoff.retry_backoff`: exponential in the
        attempt, capped at 5 s, scattered by a seeded jitter so
        synchronized retry storms cannot form.
    shard_min_size:
        Grid size at or above which a pool-mode profile job for a
        shard-capable algorithm is split into one :class:`ShardTask`
        per pool worker (default 256 — the Table 3 scale, where one
        execution would otherwise serialize the sweep's tail).  Sharding
        preserves the ledger bitwise; classification is GIL-bound NumPy,
        so the spans run in worker processes, not threads.
    store:
        :class:`ResultStore` or path for streamed, resumable results
        (None = in-memory only).
    profile_cache:
        :class:`ProfileCache` of op ledgers, or a path to open one on
        (None = private, in-memory only).  Any number of engines and
        processes may share its file: each recorded ledger merges into
        it.  It is bound to this engine's ``(dataset_kind, seed)``; a
        cache filled under another recipe raises ``ValueError``.
    faults:
        Optional :class:`repro.faults.FaultPlan` (duck-typed: anything
        with ``wrap_job``/``corrupt_point``).  Wraps every job and shard
        attempt with the plan's engine-layer faults and passes completed
        points through its sensor-corruption site — chaos testing
        against the real retry and quarantine machinery.  It is the
        engine's one job-injection hook; a wrapped body must be
        picklable to run in pool mode.
    progress:
        Callable receiving event dicts (``kind`` ∈ ``points-resumed``,
        ``group-skipped``, ``profile-cached``, ``profile-done``,
        ``shard-done``, ``group-priced``, ``retry``, ``fault-injected``,
        ``serial-fallback``, ``point-quarantined``, ``interrupted``,
        ``summary``) — the same events, with the same fields, as the
        trace.  :attr:`stats` is the fold of these events.
    trace:
        :class:`~repro.obs.trace.Tracer` or a path for a JSONL trace of
        the run: a ``sweep`` root span, ``profile-job`` spans per real
        execution, ``price-group`` spans per repriced group, and the
        events listed under ``progress``.  While a traced run is in
        flight the tracer is installed as the process default, so
        in-process kernel executions contribute their own spans.
    samples:
        ``True`` stores each point with its segment records, from the
        pricing pass itself
        (:meth:`~repro.core.pricing.PricedPoints.segment_records`), in
        the point's own store line (requires a store).
        :meth:`~repro.core.store.ResultStore.samples` expands them into
        the point's ≥10 Hz power/frequency sample stream, whose
        time-weighted mean power equals the point's ``power_w``
        exactly, at the paper's 100 ms sampler granularity.
    metrics:
        :class:`~repro.obs.metrics.MetricsRegistry` to publish run
        counters into (default: the process-wide registry).  With a
        store attached, the run's own counters are also dumped to
        ``<store>.metrics.json`` after every run.
    """

    def __init__(
        self,
        spec: MachineSpec | None = None,
        *,
        dataset_kind: str = "blobs",
        n_cycles: int = DEFAULT_VIZ_CYCLES,
        seed: int = 7,
        workers: int | None = None,
        timeout_s: float | None = None,
        max_retries: int = 2,
        backoff_s: float = 0.05,
        shard_min_size: int = 256,
        store: ResultStore | str | os.PathLike | None = None,
        profile_cache: ProfileCache | str | os.PathLike | None = None,
        faults=None,
        progress=None,
        trace: Tracer | str | os.PathLike | None = None,
        samples: bool = False,
        metrics: MetricsRegistry | None = None,
    ):
        if n_cycles < 1:
            raise ValueError("n_cycles must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.spec = spec if spec is not None else BROADWELL_E5_2695V4
        self.dataset_kind = dataset_kind
        self.n_cycles = int(n_cycles)
        self.repricer = BatchRepricer(self.spec, n_cycles=self.n_cycles)
        self.seed = seed
        self.workers = os.cpu_count() or 1 if workers is None else max(0, int(workers))
        self.timeout_s = timeout_s
        self.max_retries = int(max_retries)
        self.backoff_s = float(backoff_s)
        if shard_min_size < 1:
            raise ValueError("shard_min_size must be positive")
        self.shard_min_size = int(shard_min_size)
        self.store = ResultStore(store) if store is not None and not isinstance(store, ResultStore) else store
        self.profile_cache = profile_cache if isinstance(profile_cache, ProfileCache) else ProfileCache(profile_cache)
        self.profile_cache.bind(dataset_kind, seed)
        self.faults = faults
        self.validator = PointValidator(self.spec)
        self._progress = progress
        self.tracer = trace if isinstance(trace, Tracer) or trace is None else Tracer(trace)
        if not isinstance(samples, bool):
            raise TypeError(f"samples takes a bool, not {type(samples).__name__}")
        if samples and self.store is None:
            raise ValueError("samples=True needs a store to hold the segment records")
        self.samples = samples
        self.metrics = metrics if metrics is not None else get_registry()
        self.stats = EngineStats()

    # ----------------------------------------------------------- identity
    def context(self) -> dict:
        """Everything that determines a point's value besides its
        (algorithm, size, cap) coordinates, keyed as the store header's
        ``meta`` holds it (:data:`~repro.core.store.CONTEXT_KEYS`)."""
        return {
            "spec": asdict(self.spec),
            "dataset_kind": self.dataset_kind,
            "seed": self.seed,
            "n_cycles": self.n_cycles,
        }

    def fingerprint(self) -> str:
        """Digest of :meth:`context` and the store version."""
        return sweep_fingerprint(self.context())

    # ----------------------------------------------------------- telemetry
    def _span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs) if self.tracer is not None else NULL_SPAN

    def _report(self, kind: str, **fields) -> None:
        """Record one run fact: the one place the engine records any.

        The event folds into :attr:`stats` first, and the run's last
        event (``summary`` or ``interrupted``) publishes the fold, so a
        fact counts even when the progress callback raises to stop the
        sweep.  Then the same name and fields go to the trace and to the
        progress callback.
        """
        event = {"kind": kind, **fields}
        self.stats.fold(event)
        if kind in ("summary", "interrupted"):
            self._publish_metrics()
        if self.tracer is not None:
            self.tracer.event(kind, **fields)
        if self._progress is not None:
            self._progress(event)

    def _publish_metrics(self) -> None:
        """Add the run's stats to the registry (through :data:`_COUNTERS`)
        and, with a store, dump this run's own counts next to it: the
        registry also holds every earlier run it was given."""
        run = MetricsRegistry()
        for registry in (self.metrics, run):
            for name, metric, doc, labels in _COUNTERS:
                registry.counter(metric, doc, **labels).inc(getattr(self.stats, name))
            registry.gauge("repro_sweep_wall_seconds", "wall time of the last sweep run").set(
                self.stats.wall_s
            )
        if self.store is not None:
            atomic_write_json(
                self.store.path.with_suffix(".metrics.json"), run.to_json(), indent=1
            )

    # ---------------------------------------------------------------- sweep
    def run(self, config: StudyConfig, *, resume: bool = True) -> StudyResult:
        """Execute a phase grid, skipping points already in the store and
        cells it holds a quarantine record for.

        With ``resume=False`` an existing store is wiped and rebound to
        this sweep's fingerprint instead of being resumed.  A traced run
        installs its tracer as the process default for its duration, so
        in-process kernel executions emit their spans into the same file.
        """
        default_ctx = self.tracer.as_default() if self.tracer is not None else nullcontext()
        with default_ctx, self._span("sweep", config=config.name, resume=resume):
            return self._run(config, resume=resume)

    def _run(self, config: StudyConfig, *, resume: bool) -> StudyResult:
        t0 = time.perf_counter()
        self.stats = EngineStats()
        done: dict[tuple[str, int, float], object] = {}
        # Cells with a quarantine record are finished too: never priced
        # again, never in the result.
        quarantined: set[tuple[str, int, float]] = set()
        if self.store is not None:
            context = self.context()
            fp = sweep_fingerprint(context)
            meta = {"config_name": config.name, **context}
            if resume:
                self.store.ensure_compatible(fp, meta)
                done = self.store.points
                quarantined = self.store.quarantined_keys()
            else:
                self.store.reset(fp, meta)

        caps = tuple(config.caps_w)
        default_cap = config.default_cap_w
        groups = [(a, s) for a in config.algorithms for s in config.sizes]
        results: dict[tuple[str, int, float], object] = {}
        todo: list[tuple[str, int]] = []
        finished = done.keys() | quarantined
        for alg, size in groups:
            present = [c for c in caps if (alg, size, c) in done]
            for c in present:
                results[(alg, size, c)] = done[(alg, size, c)]
            if present:
                self._report("points-resumed", algorithm=alg, size=size, points=len(present))
            if any((alg, size, c) not in finished for c in caps):
                todo.append((alg, size))
            else:
                self._report("group-skipped", algorithm=alg, size=size)

        def price_group(alg: str, size: int) -> None:
            """Reprice every missing cap of a group, gate each point
            through the invariant checks, and stream survivors to the
            store (violators become its quarantine records)."""
            with self._span("price-group", algorithm=alg, size=size):
                self._price_group(alg, size, caps, default_cap, results, quarantined)

        # Ledger-cached groups are priced immediately; the rest become
        # profile jobs, each group priced the moment its job completes —
        # an interrupted sweep keeps every finished group's points.
        try:
            jobs: list[ProfileJob] = []
            for alg, size in todo:
                if self.profile_cache.get(alg, size) is None:
                    jobs.append(ProfileJob(alg, size, self.dataset_kind, self.seed))
                else:
                    self._report("profile-cached", algorithm=alg, size=size)
                    price_group(alg, size)
            self._execute_jobs(jobs, on_done=price_group)
        except (KeyboardInterrupt, SweepInterrupted):
            # Graceful interrupt: everything priced so far is already on
            # disk (appends fsync per point); force full durability and
            # hand control back so `--resume` picks up exactly here.
            if self.store is not None:
                self.store.sync()
            self._report(
                "interrupted",
                points_saved=len(self.store) if self.store is not None else len(results),
                computed=self.stats.points_computed,
                wall_s=time.perf_counter() - t0,
            )
            raise

        # Quarantined cells are absent by design: the result carries the
        # surviving points only.
        ordered = [
            results[(a, s, c)]
            for a in config.algorithms
            for s in config.sizes
            for c in caps
            if (a, s, c) in results
        ]
        final = replace(self.stats, wall_s=time.perf_counter() - t0)
        self._report(
            "summary",
            config=config.name,
            points=len(ordered),
            **{_SUMMARY_KEYS.get(k, k): v for k, v in asdict(final).items()},
            throughput_pts_s=final.throughput_pts_s,
        )
        return StudyResult(config_name=config.name, points=ordered)

    # ---------------------------------------------------------- repricing
    def _price_group(
        self,
        alg: str,
        size: int,
        caps: tuple[float, ...],
        default_cap: float,
        results: dict,
        quarantined: set,
    ) -> None:
        missing = [
            c for c in caps if (alg, size, c) not in results and (alg, size, c) not in quarantined
        ]
        if not missing:
            return  # a group listed twice in the config is priced once
        priced = self.repricer.reprice(
            alg, size, self.profile_cache.get(alg, size), missing, default_cap_w=default_cap
        )
        # (i, point): i indexes the pass, not the (possibly
        # fault-corrupted) point, so segment records always come from
        # the pass's ground-truth cells.
        fresh: list = []
        for i, point in enumerate(priced):
            if self.faults is not None:
                point = self.faults.corrupt_point(point)
            fresh.append((i, point))

        resumed = [results[(alg, size, c)] for c in caps if (alg, size, c) in results]
        bad = self.validator.check_group(resumed + [p for _, p in fresh])
        computed = 0
        for i, point in fresh:
            reasons = bad.get(point.key)
            if reasons:
                # A violating point is never stored: it becomes a
                # quarantine record with machine-readable reasons and
                # the sweep keeps going.
                if self.store is not None:
                    self.store.quarantine(point, reasons)
                self._report(
                    "point-quarantined",
                    algorithm=alg,
                    size=size,
                    cap_w=point.cap_w,
                    reasons=[r.code for r in reasons],
                )
                continue
            results[point.key] = point
            computed += 1
            # An unsampled append stays a one-argument call: perfbench's
            # span wrapper takes ResultStore.append(self, point).
            if self.samples:
                self.store.append(point, segments=priced.segment_records(i))
            elif self.store is not None:
                self.store.append(point)
        self._report(
            "group-priced",
            algorithm=alg,
            size=size,
            computed=computed,
            rapl_decisions=priced.decisions,
            rapl_throttle_decisions=priced.throttle_decisions,
        )

    # ------------------------------------------------------- job execution
    def _shards_for(self, job: ProfileJob) -> int:
        """Pool-mode shard fan-out for one profile job (1 = don't split).

        Eligible jobs are shard-capable algorithms at ``shard_min_size``
        or larger, split one span per pool worker, never wider than the
        grid has k-planes.
        """
        if job.size < self.shard_min_size or not supports_sharding(job.algorithm):
            return 1
        return max(1, min(self.workers, int(job.size)))

    def _execute_jobs(self, jobs: list[ProfileJob], on_done=None) -> None:
        if not jobs:
            return
        remaining = jobs
        # A single large shardable job still benefits from the pool —
        # its spans run in parallel worker processes.
        if self.workers > 1 and (
            len(jobs) > 1 or any(self._shards_for(j) > 1 for j in jobs)
        ):
            try:
                self._run_pool(jobs, on_done)
                return
            except _PoolFailure as exc:
                self._report("serial-fallback", reason=str(exc.__cause__ or exc))
                remaining = [
                    j for j in jobs if self.profile_cache.get(j.algorithm, j.size) is None
                ]
        self._run_serial(remaining, on_done)

    def _record(
        self, job: ProfileJob, ledger: dict[str, float], done: int, total: int, dt: float, on_done
    ) -> None:
        self.profile_cache.put(job.algorithm, job.size, ledger)
        self._report(
            "profile-done",
            algorithm=job.algorithm,
            size=job.size,
            completed=done,
            total=total,
            elapsed_s=dt,
        )
        if on_done is not None:
            on_done(job.algorithm, job.size)

    def _job_body(self, job, attempt: int):
        """The callable actually executed for one job attempt —
        the profile body (or the shard body for a :class:`ShardTask`),
        wrapped with the fault plan when one is set."""
        fn = execute_shard_task if isinstance(job, ShardTask) else execute_profile_job
        if self.faults is None:
            return fn
        return self.faults.wrap_job(fn, attempt)

    def _run_serial(self, jobs: list[ProfileJob], on_done=None) -> None:
        total = len(jobs)
        for i, job in enumerate(jobs, start=1):
            t0 = time.perf_counter()
            attempt = 0
            while True:
                try:
                    with self._span(
                        "profile-job",
                        algorithm=job.algorithm,
                        size=job.size,
                        attempt=attempt,
                        mode="serial",
                    ):
                        ledger = self._job_body(job, attempt)(job)
                    break
                except Exception as exc:
                    attempt = self._attempt_failed(job, exc, attempt)
            self._record(job, ledger, i, total, time.perf_counter() - t0, on_done)

    def _attempt_failed(self, job, exc: Exception, attempt: int) -> int:
        """Account failed attempt ``attempt`` (0-based) of a job or shard.

        Reports a fault-injected event for an injected failure, raises
        :class:`SweepError` once the retry budget is spent, and otherwise
        counts the retry, reports it, sleeps the backoff, and returns the
        next attempt's number.
        """
        if getattr(exc, "injected", False):
            self._report(
                "fault-injected", algorithm=job.algorithm, size=job.size, error=repr(exc)
            )
        attempt += 1
        if attempt > self.max_retries:
            shard = (
                f" shard {job.shard}/{job.n_shards}" if isinstance(job, ShardTask) else ""
            )
            raise SweepError(
                f"profile job {job.algorithm}@{job.size}{shard} failed "
                f"after {attempt} attempts: {exc}"
            ) from exc
        self._report(
            "retry",
            algorithm=job.algorithm,
            size=job.size,
            attempt=attempt,
            error=repr(exc),
        )
        time.sleep(self._backoff(job, attempt))
        return attempt

    def _backoff(self, job: ProfileJob, attempt: int) -> float:
        return retry_backoff(
            attempt,
            base_s=self.backoff_s,
            cap_s=BACKOFF_CAP_S,
            seed=self.seed,
            key=f"{job.algorithm}@{job.size}",
        )

    def _run_pool(self, jobs: list[ProfileJob], on_done=None) -> None:
        # Scheduling window: bounds queue memory for huge grids.
        window = max(2 * self.workers, 4)
        # Large shardable jobs fan out into one ShardTask per k-span;
        # their partial ledgers accumulate in shard_groups until every
        # span has reported, then merge (ascending shard order) into the
        # group's job ledger.  Everything else stays a whole ProfileJob.
        pending: deque = deque()
        shard_groups: dict[tuple[str, int], dict] = {}
        for job in jobs:
            n = self._shards_for(job)
            if n <= 1:
                pending.append(job)
                continue
            shard_groups[(job.algorithm, job.size)] = {
                "job": job,
                "n_shards": n,
                "parts": {},
                "t0": time.perf_counter(),
            }
            pending.extend(
                ShardTask(job.algorithm, job.size, job.dataset_kind, job.seed, shard, n)
                for shard in range(n)
            )
        attempts: dict = {}
        total = len(jobs)
        in_flight: dict = {}
        try:
            with ProcessPoolExecutor(max_workers=self.workers) as pool:
                try:
                    self._pool_loop(
                        pool, pending, attempts, in_flight, window, total, shard_groups, on_done
                    )
                except (KeyboardInterrupt, SweepInterrupted):
                    # Graceful interrupt: stop feeding the pool, cancel
                    # whatever has not started, and get out fast — the
                    # caller fsyncs the store and re-raises.
                    for fut in in_flight:
                        fut.cancel()
                    pool.shutdown(wait=False, cancel_futures=True)
                    raise
        except _PoolFailure:
            raise
        except (BrokenExecutor, OSError) as exc:
            raise _PoolFailure("process pool unavailable") from exc

    def _absorb_shard(self, task: ShardTask, ledger, dt, shard_groups):
        """Fold one shard's partial ledger into its group.

        Returns ``None`` while the group is incomplete; once every span
        has reported, returns ``(job, merged_ledger, group_elapsed_s)``
        for the normal job-completion path.  Shards merge in ascending
        span order, so the group ledger equals the serial one bitwise.
        """
        if self.tracer is not None:
            self.tracer.record_span(
                "profile-shard",
                dt,
                algorithm=task.algorithm,
                size=task.size,
                shard=task.shard,
                n_shards=task.n_shards,
                mode="pool",
            )
        group = shard_groups[(task.algorithm, task.size)]
        group["parts"][task.shard] = ledger
        self._report(
            "shard-done",
            algorithm=task.algorithm,
            size=task.size,
            shard=task.shard,
            n_shards=task.n_shards,
            elapsed_s=dt,
        )
        if len(group["parts"]) < group["n_shards"]:
            return None
        merged = merge_shard_ledgers(
            group["parts"][i] for i in range(group["n_shards"])
        )
        return group["job"], merged, time.perf_counter() - group["t0"]

    def _pool_loop(
        self, pool, pending, attempts, in_flight, window, total, shard_groups, on_done
    ) -> None:
        completed = 0
        while pending or in_flight:
            while pending and len(in_flight) < window:
                job = pending.popleft()
                fut = pool.submit(self._job_body(job, attempts.get(job, 0)), job)
                deadline = (
                    time.monotonic() + self.timeout_s if self.timeout_s else None
                )
                in_flight[fut] = (job, time.perf_counter(), deadline)
            tick = None
            if self.timeout_s:
                deadlines = [d for (_, _, d) in in_flight.values() if d]
                if deadlines:
                    tick = max(0.0, min(deadlines) - time.monotonic()) + 0.01
            finished, _ = wait(set(in_flight), timeout=tick, return_when=FIRST_COMPLETED)
            now = time.monotonic()
            if not finished:
                for fut in [
                    f for f, (_, _, d) in in_flight.items() if d and now >= d
                ]:
                    job, _, _ = in_flight.pop(fut)
                    fut.cancel()
                    self._retry_or_raise(
                        job, TimeoutError(f"exceeded {self.timeout_s}s"), attempts, pending
                    )
                continue
            for fut in finished:
                job, t0, _ = in_flight.pop(fut)
                try:
                    ledger = fut.result()
                except BrokenExecutor as exc:
                    raise _PoolFailure("process pool broke") from exc
                except Exception as exc:
                    # Serialization failures (PicklingError, or the
                    # AttributeError/TypeError CPython raises for
                    # local objects) mean the pool can never run
                    # this work — degrade rather than retry.
                    if isinstance(exc, pickle.PicklingError) or (
                        isinstance(exc, (AttributeError, TypeError))
                        and "pickle" in str(exc).lower()
                    ):
                        raise _PoolFailure("job not picklable") from exc
                    self._retry_or_raise(job, exc, attempts, pending)
                else:
                    dt = time.perf_counter() - t0
                    if isinstance(job, ShardTask):
                        group_done = self._absorb_shard(job, ledger, dt, shard_groups)
                        if group_done is None:
                            continue
                        job, ledger, dt = group_done
                    completed += 1
                    if self.tracer is not None:
                        # The job ran in a worker process (its kernel
                        # spans are invisible here); record its span
                        # from the parent-side wall time.
                        self.tracer.record_span(
                            "profile-job",
                            dt,
                            algorithm=job.algorithm,
                            size=job.size,
                            mode="pool",
                        )
                    self._record(job, ledger, completed, total, dt, on_done)

    def _retry_or_raise(self, job, exc, attempts, pending) -> None:
        attempts[job] = self._attempt_failed(job, exc, attempts.get(job, 0))
        pending.append(job)
