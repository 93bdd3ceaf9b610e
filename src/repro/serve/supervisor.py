"""Worker supervision: leases, retries, reclamation, circuit breaking.

The :class:`Supervisor` owns the daemon side of the queue.  One control
loop reads the WAL (its own appends *and* external client submissions
come back through the same ``poll()``), reclaims expired leases,
updates the circuit breaker, and dispatches eligible jobs to a bounded
pool of worker threads.  Between passes it waits on the WAL's doorbell
FIFO (:meth:`~repro.serve.wal.WriteAheadLog.ring`), which every append
rings, for at most ``poll_interval_s``: a submission, a cancel or a
worker's outcome starts the next pass at once, and the timeout only
paces heartbeats, lease expiry and backoff gates.  Worker threads run
one study delivery each and append the outcome (``complete``,
``requeue`` with backoff, or terminal ``fail``); every ``lease_s / 3``
the control loop also appends a heartbeat for each in-flight delivery,
so a *healthy* long study is never reclaimed out from under its worker.

Each queue decision is one WAL record, written by
:meth:`Supervisor._record`: it stamps the record's time, appends it,
adds to the counter :data:`_COUNTERS` maps it to, and emits it as a
``serve-<kind>`` trace event.

Failure handling is budgeted on two axes:

* **retries** — a delivery that raises is requeued with the same
  capped+jittered backoff the engine uses
  (:func:`repro.core.backoff.retry_backoff`) until ``max_retries`` is
  exhausted, then failed terminally with the error recorded.  An error
  from the job's own inputs (:data:`_INPUT_ERRORS`) fails it at once;
* **lease expirations** — a job whose lease keeps expiring (stalled
  heartbeats, repeatedly killed daemons) is requeued at most
  ``breaker_threshold + 3`` times before being failed terminally, so a
  poisoned job cannot ping-pong forever.

The circuit breaker watches the *consecutive-failure streak* derived
from the WAL (so it too survives restarts): at ``breaker_threshold``
the pool degrades to serial dispatch, at twice that it opens — the
service sheds new submissions until a success closes it.  Transitions
are appended as ``breaker`` records, making the ladder auditable and
visible to clients.

Fault injection is duck-typed: anything with ``wrap_progress`` /
``stall_heartbeat`` / ``duplicate_claim`` methods (see
:class:`repro.faults.service.ServiceFaultInjector`) can perturb the
loop; the supervisor never imports the faults layer.
"""

from __future__ import annotations

import os
import queue
import select
import stat
import threading
import time
import traceback

from ..core.backoff import retry_backoff
from ..core.engine import SweepInterrupted
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.trace import NULL_SPAN, Tracer
from .wal import QueueState, WriteAheadLog

__all__ = ["Supervisor"]

#: Breaker escalation order (gauge value == index).
_BREAKER_LEVELS = ("closed", "degraded", "open")

#: The counter each queue decision adds one to, keyed by the record's
#: ``(kind, reason)``: ``(metric, help, labels)``.  Claims, breaker
#: transitions and shutdown requeues count nowhere.
_JOBS = ("repro_serve_jobs_total", "job deliveries by terminal outcome")
_COUNTERS = {
    ("heartbeat", None): ("repro_serve_heartbeats_total", "lease extensions appended", {}),
    ("requeue", "lease-expired"): (
        "repro_serve_lease_expirations_total",
        "leases reclaimed from stalled or dead workers",
        {},
    ),
    ("requeue", "retry"): ("repro_serve_retries_total", "job deliveries requeued for retry", {}),
    ("complete", None): (*_JOBS, {"outcome": "completed"}),
    ("fail", None): (*_JOBS, {"outcome": "failed"}),
}

#: Delivery errors that come from the job's own inputs (a foreign or
#: other-version store, a bad grid): every retry would raise them again,
#: so they fail the job on the delivery that raised them.
_INPUT_ERRORS = (ValueError, TypeError, KeyError)


class Supervisor:
    """Run queued jobs on a bounded, lease-supervised worker pool.

    ``runner(job, progress=...)`` executes one delivery and returns a
    dict merged into the ``complete`` record (at least ``points`` and
    ``store``); raising requeues or fails the job.  The supervisor is
    deliberately study-agnostic — :mod:`repro.serve.service` supplies
    the runner that builds a :class:`~repro.core.engine.SweepEngine`.

    ``poll_interval_s`` is the longest wait between control-loop
    passes: every WAL append rings the doorbell that ends the wait.
    """

    def __init__(
        self,
        wal: WriteAheadLog,
        state: QueueState,
        runner,
        *,
        workers: int = 2,
        lease_s: float = 30.0,
        poll_interval_s: float = 0.05,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 5.0,
        breaker_threshold: int = 3,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        injector=None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if lease_s <= 0:
            raise ValueError("lease_s must be positive")
        if poll_interval_s < 0:
            # A negative poll timeout would wait for a ring forever.
            raise ValueError("poll_interval_s must be >= 0")
        if breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        self.wal = wal
        self.state = state
        self.runner = runner
        self.workers = int(workers)
        self.lease_s = float(lease_s)
        self.poll_interval_s = float(poll_interval_s)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self.breaker_threshold = int(breaker_threshold)
        self.metrics = metrics if metrics is not None else get_registry()
        self.tracer = tracer
        self.injector = injector
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._queue: queue.Queue = queue.Queue()
        #: job_ids handed to the pool and not yet finished by a worker —
        #: the guard that keeps the dispatcher from double-delivering a
        #: job this daemon is already running (a *requeued* job stays
        #: here until its original delivery returns).
        self._inflight: set[str] = set()
        #: active deliveries whose leases the control loop extends.
        self._active: dict[str, int] = {}
        self._stalled: set[str] = set()

    # ----------------------------------------------------------------- knobs
    def stop(self) -> None:
        """Graceful shutdown: running studies are interrupted at the next
        progress event and requeued (``reason="shutdown"``), so nothing
        is lost and the next daemon resumes them.  It rings the doorbell,
        so the control loop ends within one pass; a signal handler may
        call it."""
        self._stop.set()
        self.wal.ring()

    @property
    def max_lease_expirations(self) -> int:
        return self.breaker_threshold + 3

    # --------------------------------------------------------------- record
    def _record(self, kind: str, **fields) -> None:
        """Record one queue decision; the supervisor records none elsewhere.

        The record is stamped with its time ``t`` and appended to the WAL
        (the queue state folds it in on the next poll); then it adds one
        to the counter :data:`_COUNTERS` maps it to, and goes to the
        trace as a ``serve-<kind>`` event with the record's fields.
        """
        fields["t"] = time.time()
        self.wal.append({"kind": kind, **fields})
        counter = _COUNTERS.get((kind, fields.get("reason")))
        if counter is not None:
            name, doc, labels = counter
            self.metrics.counter(name, doc, **labels).inc()
        if self.tracer is not None:
            self.tracer.event(f"serve-{kind}", **fields)

    # ------------------------------------------------------------------ run
    def run(self, *, drain: bool = False) -> None:
        """Supervise until :meth:`stop` (or, with ``drain=True``, until
        every known job is terminal)."""
        bell, bell_w = self._open_doorbell()
        doorbell = select.poll()
        doorbell.register(bell, select.POLLIN)
        span = (
            self.tracer.span("serve", workers=self.workers, lease_s=self.lease_s)
            if self.tracer is not None
            else NULL_SPAN
        )
        threads = [
            threading.Thread(target=self._worker_loop, name=f"serve-w{i}", daemon=True)
            for i in range(self.workers)
        ]
        beat_s = self.lease_s / 3.0
        next_beat_t = time.time() + beat_s
        with span:
            for t in threads:
                t.start()
            try:
                while not self._stop.is_set():
                    if time.time() >= next_beat_t:
                        self._heartbeat()
                        next_beat_t = time.time() + beat_s
                    self.state.apply_all(self.wal.poll())
                    self._reclaim_leases()
                    self._update_breaker()
                    self._dispatch()
                    self._publish_metrics()
                    if drain and self._drained():
                        break
                    self._wait(doorbell, bell)
            finally:
                self._stop.set()
                for _ in threads:
                    self._queue.put(None)
                for t in threads:
                    t.join(timeout=30.0)
                self.state.apply_all(self.wal.poll())
                self._publish_metrics()
                os.close(bell)
                os.close(bell_w)

    def _open_doorbell(self) -> tuple[int, int]:
        """Make the WAL's doorbell FIFO, or reuse one a dead daemon left,
        and open its read end and a write end of our own.

        Holding the write end keeps the read end from reporting EOF once
        a client closes its end, which would make every wait return at
        once.  Anything but a FIFO at the path raises, naming it.
        """
        path = self.wal.wake_path
        try:
            os.mkfifo(path)
        except FileExistsError:
            if not stat.S_ISFIFO(os.stat(path).st_mode):
                raise FileExistsError(
                    f"{path} exists and is not a FIFO: the daemon's doorbell "
                    "needs that path; move the file away"
                ) from None
        bell = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        return bell, os.open(path, os.O_WRONLY | os.O_NONBLOCK)

    def _wait(self, doorbell, bell: int) -> None:
        """Wait until an append rings the doorbell or ``poll_interval_s``
        passes, then drain every poke (the next pass reads all the
        records they announce)."""
        if doorbell.poll(self.poll_interval_s * 1e3):
            try:
                os.read(bell, 65536)
            except BlockingIOError:
                pass

    def _drained(self) -> bool:
        with self._lock:
            busy = len(self._inflight)
        return busy == 0 and not self.state.open_jobs()

    # ------------------------------------------------------------- dispatch
    def _capacity(self) -> int:
        level, _streak = self.state.breaker_view()
        limit = 1 if level in ("degraded", "open") else self.workers
        with self._lock:
            return limit - len(self._inflight)

    def _dispatch(self) -> None:
        now_t = time.time()
        slots = self._capacity()
        for job in self.state.eligible(now_t):
            if slots <= 0:
                break
            with self._lock:
                if job.job_id in self._inflight:
                    continue
                self._inflight.add(job.job_id)
            self._queue.put(job.job_id)
            slots -= 1
        self._inject_duplicates()

    def _inject_duplicates(self) -> None:
        """Chaos hook: redeliver a job that is already running, proving
        the at-least-once path (the second ``complete`` is ignored)."""
        dup = getattr(self.injector, "duplicate_claim", None)
        if dup is None:
            return
        for job in self.state.running():
            if dup(job.job_id):
                self._queue.put(job.job_id)
                with self._lock:
                    self._active[job.job_id] = self._active.get(job.job_id, 0)

    # ------------------------------------------------------------ lease care
    def _heartbeat(self) -> None:
        """Extend the lease of every active delivery whose heartbeats
        are not stalled."""
        with self._lock:
            beating = [j for j in self._active if j not in self._stalled]
        for job_id in beating:
            self._record("heartbeat", job_id=job_id, deadline_t=time.time() + self.lease_s)

    def _reclaim_leases(self) -> None:
        now_t = time.time()
        expired = [job for job in self.state.running() if job.lease_deadline_t <= now_t]
        for job in expired:
            expirations = job.expirations + 1
            if expirations > self.max_lease_expirations:
                self._record(
                    "fail",
                    job_id=job.job_id,
                    error=f"lease expired {expirations} times "
                    f"(budget {self.max_lease_expirations})",
                    failures=job.failures,
                )
            else:
                self._record(
                    "requeue",
                    job_id=job.job_id,
                    reason="lease-expired",
                    failures=job.failures,
                    expirations=expirations,
                    not_before_t=now_t,
                )
        if expired:
            # The breaker and the dispatcher read these records next.
            self.state.apply_all(self.wal.poll())

    # -------------------------------------------------------------- breaker
    def _update_breaker(self) -> None:
        current, streak = self.state.breaker_view()
        if streak >= 2 * self.breaker_threshold:
            level = "open"
        elif streak >= self.breaker_threshold:
            level = "degraded"
        else:
            level = "closed"
        if level != current:
            self._record("breaker", state=level, streak=streak)
            self.state.apply_all(self.wal.poll())

    # -------------------------------------------------------------- workers
    def _worker_loop(self) -> None:
        name = threading.current_thread().name
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            try:
                self._execute(name, job_id)
            finally:
                with self._lock:
                    self._inflight.discard(job_id)
                    count = self._active.get(job_id, 1) - 1
                    if count <= 0:
                        self._active.pop(job_id, None)
                        self._stalled.discard(job_id)
                    else:
                        self._active[job_id] = count
                # The outcome's append rang before this slot was free,
                # so the pass it woke may have found no capacity.
                self.wal.ring()

    def _claim(self, worker: str, job) -> None:
        job_id = job.job_id
        self._record(
            "claim",
            job_id=job_id,
            worker=worker,
            lease_s=self.lease_s,
            deadline_t=time.time() + self.lease_s,
        )
        with self._lock:
            self._active[job_id] = self._active.get(job_id, 0) + 1
        stall = getattr(self.injector, "stall_heartbeat", None)
        if stall is not None and stall(job_id, job.failures):
            with self._lock:
                self._stalled.add(job_id)

    def _execute(self, worker: str, job_id: str) -> None:
        job = self.state.get(job_id)
        if job is None or job.terminal or job.status == "cancelled":
            return
        self._claim(worker, job)

        def progress(event: dict) -> None:
            if self._stop.is_set():
                raise SweepInterrupted("daemon stopping")

        wrap = getattr(self.injector, "wrap_progress", None)
        if wrap is not None:
            progress = wrap(job_id, job.failures, progress)
        span = (
            self.tracer.span("serve-job", job_id=job_id, worker=worker)
            if self.tracer is not None
            else NULL_SPAN
        )
        now_t = time.time()
        try:
            with span:
                out = self.runner(job, progress=progress)
        except SweepInterrupted:
            self._record(
                "requeue",
                job_id=job_id,
                reason="shutdown",
                failures=job.failures,
                not_before_t=0.0,
            )
        except Exception as exc:
            self._handle_failure(job, exc)
        else:
            self._record(
                "complete",
                job_id=job_id,
                points=int(out.get("points", 0)),
                store=out.get("store"),
                elapsed_s=time.time() - now_t,
            )

    def _handle_failure(self, job, exc: Exception) -> None:
        failures = job.failures + 1
        max_retries = int(job.spec.get("max_retries", 2))
        if getattr(exc, "injected", False):
            self.metrics.counter(
                "repro_serve_faults_injected_total", "injected service faults observed"
            ).inc()
        error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        if failures > max_retries or isinstance(exc, _INPUT_ERRORS):
            self._record("fail", job_id=job.job_id, error=error, failures=failures)
        else:
            delay_s = retry_backoff(
                failures,
                base_s=self.backoff_base_s,
                cap_s=self.backoff_cap_s,
                key=job.job_id,
            )
            self._record(
                "requeue",
                job_id=job.job_id,
                reason="retry",
                failures=failures,
                not_before_t=time.time() + delay_s,
                backoff_s=delay_s,
                error=error,
            )

    # -------------------------------------------------------------- metrics
    def _publish_metrics(self) -> None:
        counts = self.state.counts()
        self.metrics.gauge("repro_serve_queue_depth", "jobs waiting to run").set(
            counts["pending"]
        )
        self.metrics.gauge("repro_serve_running", "jobs currently leased").set(
            counts["running"]
        )
        self.metrics.gauge(
            "repro_serve_breaker_state", "circuit breaker (0 closed, 1 degraded, 2 open)"
        ).set(_BREAKER_LEVELS.index(self.state.breaker_view()[0]))
        self.metrics.gauge(
            "repro_serve_wal_corrupt_lines", "corrupt WAL lines skipped on replay"
        ).set(self.wal.corruption_count())
