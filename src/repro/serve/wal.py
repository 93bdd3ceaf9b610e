"""The durable job queue: an append-only JSONL write-ahead log.

Every queue mutation is one appended record — ``submit``, ``claim``,
``heartbeat``, ``requeue``, ``fail``, ``complete``, ``cancel``,
``breaker`` — and the in-memory :class:`QueueState` is *only ever*
produced by replaying those records.  There is no second code path for
"live" state: the daemon applies the same records it just appended by
polling its own file, so crash recovery is the normal path run again,
not a special case.

Durability and damage tolerance mirror the result store's contract:

* every append is flushed and fsynced before the caller proceeds, so an
  acknowledged submission survives ``kill -9``;
* the reader parses only whole lines — a torn tail (a writer killed
  mid-append) is invisible until the line is completed or terminated;
* before appending, the writer repairs a missing trailing newline so a
  new record can never concatenate onto a torn one (which would lose
  *both* records on replay);
* corrupt interior lines are skipped, counted in
  :attr:`WriteAheadLog.corrupt_lines`, and reported through
  :func:`repro.obs.trace.log_event` — one bad record must not take the
  queue down.

Every append is also a wake-up.  After its fsync, :meth:`WriteAheadLog.append`
rings a doorbell: it writes one byte to the FIFO ``<wal>.wake`` that a
running daemon holds open and waits on, so a submission, a cancel or a
worker's ``complete`` starts the next control-loop pass at once instead
of after the poll interval.  The doorbell carries no data; the record
is already in the log.  A poke that cannot be delivered (no FIFO yet,
no daemon reading it, a full pipe that already holds a wake) is
dropped, which costs the daemon at most one poll interval.

Replay is idempotent: records for unknown jobs, second ``submit``s and
second ``complete``s for the same job are ignored (and counted), which
is what makes at-least-once delivery safe — a duplicated execution can
re-append ``complete`` without double-counting the job.
"""

from __future__ import annotations

import json
import os
import stat
import threading
from dataclasses import dataclass
from pathlib import Path

from ..obs.trace import log_event

__all__ = [
    "WAL_FORMAT",
    "WAL_VERSION",
    "TERMINAL_STATUSES",
    "WriteAheadLog",
    "JobState",
    "QueueState",
]

WAL_FORMAT = "repro-serve-wal"
WAL_VERSION = 1

#: Statuses a job never leaves.
TERMINAL_STATUSES = frozenset({"completed", "failed", "cancelled"})


class WriteAheadLog:
    """Append-only JSONL log with fsync'd appends and torn-tail-tolerant reads.

    ``append`` is safe to call from multiple threads of one process (an
    internal lock serializes the newline-repair + write + fsync
    sequence).  Multiple *processes* may append concurrently — appends
    open in ``"a"`` mode and records are single writes — which is how
    clients submit into a live daemon's queue.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        #: The doorbell FIFO a running daemon waits on (see :meth:`ring`).
        self.wake_path = self.path.with_name(self.path.name + ".wake")
        self.corrupt_lines = 0
        self._offset = 0
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if not self.path.exists() or self.path.stat().st_size == 0:
            self.append({"format": WAL_FORMAT, "version": WAL_VERSION})

    # ---------------------------------------------------------------- append
    def append(self, record: dict) -> None:
        """Durably append one record (flush + fsync before returning),
        then ring the doorbell."""
        data = json.dumps(record, sort_keys=True).encode() + b"\n"
        with self._lock:
            with open(self.path, "a+b") as fh:
                # Repair a torn tail left by a crashed writer: without a
                # terminating newline this record would concatenate onto
                # the partial line and replay would lose both.
                fh.seek(0, os.SEEK_END)
                if fh.tell() < self._offset:
                    # The file shrank behind our back (externally torn or
                    # rotated).  Catch it *before* this append grows the
                    # file past the stale offset, or the next poll would
                    # read from the middle of this record.
                    log_event(
                        "serve-wal-shrank",
                        f"WAL {self.path} shrank below read offset "
                        f"{self._offset}; replaying from the start",
                        path=str(self.path),
                    )
                    self._offset = 0
                if fh.tell() > 0:
                    fh.seek(-1, os.SEEK_END)
                    if fh.read(1) != b"\n":
                        fh.write(b"\n")
                fh.write(data)
                fh.flush()
                # repro: lint-ignore[RPR011]: append ordering IS the durability contract — the lock must cover write+flush+fsync so acknowledged records reach disk in queue order
                os.fsync(fh.fileno())
        self.ring()

    def ring(self) -> None:
        """Poke the doorbell FIFO: wake a daemon waiting on this log.

        Best effort and never blocking: every ``OSError`` is ignored (no
        FIFO yet, no reader after a ``kill -9``, a full pipe that
        already holds a wake), and a path that is not a FIFO gets no
        byte.  A lost poke costs the daemon at most one poll interval.
        """
        try:
            fd = os.open(self.wake_path, os.O_WRONLY | os.O_NONBLOCK)
        except OSError:
            return
        try:
            if stat.S_ISFIFO(os.fstat(fd).st_mode):
                os.write(fd, b"\0")
        except OSError:
            pass
        finally:
            os.close(fd)

    # ----------------------------------------------------------------- read
    def poll(self) -> list[dict]:
        """Records appended since the last poll (whole lines only).

        The header line and unparseable lines are filtered out; the
        latter are counted and reported.  A torn tail stays unread until
        a later append terminates it.
        """
        records, bad = self._read()
        if bad:
            total = self.corruption_count()
            log_event(
                "serve-wal-corrupt-line",
                f"skipped {bad} corrupt line(s) in WAL {self.path} "
                f"({total} total); queue state is rebuilt from "
                "the surviving records",
                path=str(self.path),
                skipped=bad,
                total=total,
            )
        return records

    def replay(self) -> list[dict]:
        """Re-read the whole log from the top: a silent audit re-read.

        Corrupt lines are counted in :attr:`corrupt_lines` afresh but not
        reported again: :meth:`poll` reports each one as the daemon
        first reads it.
        """
        with self._lock:
            self._offset = 0
            self.corrupt_lines = 0
        return self._read()[0]

    def _read(self) -> tuple[list[dict], int]:
        """Whole-line records since the offset, and the number of corrupt
        lines skipped (added to :attr:`corrupt_lines`)."""
        with self._lock:
            try:
                size = self.path.stat().st_size
            except FileNotFoundError:
                return [], 0
            if size < self._offset:
                # The file shrank under us (externally torn/rotated) —
                # restart from the top; apply() is idempotent.
                log_event(
                    "serve-wal-shrank",
                    f"WAL {self.path} shrank from offset {self._offset} to "
                    f"{size}; replaying from the start",
                    path=str(self.path),
                )
                self._offset = 0
            if size == self._offset:
                return [], 0
            with open(self.path, "rb") as fh:
                fh.seek(self._offset)
                buf = fh.read()
            end = buf.rfind(b"\n")
            if end < 0:
                return [], 0  # nothing but a torn tail so far
            self._offset += end + 1
            lines = buf[: end + 1].splitlines()
        records: list[dict] = []
        bad = 0
        for line in lines:
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                bad += 1
                continue
            if not isinstance(doc, dict) or "kind" not in doc:
                continue  # header line (or foreign JSON): not a queue record
            records.append(doc)
        if bad:
            with self._lock:
                self.corrupt_lines += bad
        return records, bad

    def corruption_count(self) -> int:
        """Corrupt lines skipped so far (locked read for metrics/status)."""
        with self._lock:
            return self.corrupt_lines


@dataclass
class JobState:
    """One job's current position in the state machine.

    ``pending`` → ``running`` (under a heartbeat lease) → ``completed``
    / ``failed`` / ``cancelled``; ``requeue`` records send a running or
    failed-attempt job back to ``pending`` (with a backoff gate in
    ``not_before_t``).  Instances are *derived* — only
    :meth:`QueueState.apply` mutates them.
    """

    job_id: str
    spec: dict
    status: str = "pending"
    failures: int = 0
    expirations: int = 0
    worker: str | None = None
    lease_deadline_t: float = 0.0
    not_before_t: float = 0.0
    points: int | None = None
    store: str | None = None
    error: str | None = None
    submitted_t: float = 0.0
    finished_t: float = 0.0

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATUSES

    def snapshot(self) -> dict:
        """JSON-ready view for status queries and reports."""
        return {
            "job_id": self.job_id,
            "status": self.status,
            "study": self.spec.get("study", {}).get("name"),
            "failures": self.failures,
            "expirations": self.expirations,
            "worker": self.worker,
            "points": self.points,
            "store": self.store,
            "error": self.error,
        }


class QueueState:
    """The queue, derived by replaying WAL records (and nothing else).

    ``apply`` is idempotent and tolerant of duplicates and records for
    unknown jobs (both counted in :attr:`duplicates_ignored` /
    :attr:`orphan_records`): replaying a log twice, or a log containing
    the effects of duplicate delivery, converges to the same state.
    """

    def __init__(self) -> None:
        # The control loop replays records while worker threads look up
        # their jobs; one lock covers every access to the jobs table.
        self._lock = threading.Lock()
        self.jobs: dict[str, JobState] = {}
        self.breaker = "closed"
        self.breaker_t = 0.0
        self.breaker_streak = 0
        self.duplicates_ignored = 0
        self.orphan_records = 0

    # ---------------------------------------------------------------- apply
    def apply(self, record: dict) -> None:
        with self._lock:
            self._apply_locked(record)

    def _apply_locked(self, record: dict) -> None:
        kind = record.get("kind")
        if kind == "submit":
            job_id = record.get("job_id", "")
            if job_id in self.jobs:
                self.duplicates_ignored += 1
                return
            self.jobs[job_id] = JobState(
                job_id=job_id,
                spec=record.get("spec", {}),
                submitted_t=float(record.get("t", 0.0)),
            )
            return
        if kind == "breaker":
            self.breaker = str(record.get("state", "closed"))
            self.breaker_t = float(record.get("t", 0.0))
            return
        job = self.jobs.get(record.get("job_id", ""))
        if job is None:
            self.orphan_records += 1  # e.g. the submit line was lost to a tear
            return
        if kind == "claim":
            if job.terminal:
                return
            job.status = "running"
            job.worker = record.get("worker")
            job.lease_deadline_t = float(record.get("deadline_t", 0.0))
        elif kind == "heartbeat":
            if job.status == "running":
                job.lease_deadline_t = max(
                    job.lease_deadline_t, float(record.get("deadline_t", 0.0))
                )
        elif kind == "requeue":
            if job.terminal:
                return
            job.status = "pending"
            job.worker = None
            job.failures = int(record.get("failures", job.failures))
            job.expirations = int(record.get("expirations", job.expirations))
            job.not_before_t = float(record.get("not_before_t", 0.0))
            if record.get("reason") == "retry":
                self.breaker_streak += 1
            elif record.get("reason") == "lease-expired":
                self.breaker_streak += 1
        elif kind == "fail":
            if job.terminal:
                return
            job.status = "failed"
            job.error = record.get("error")
            job.failures = int(record.get("failures", job.failures))
            job.finished_t = float(record.get("t", 0.0))
            self.breaker_streak += 1
        elif kind == "complete":
            if job.terminal:
                if job.status == "completed":
                    self.duplicates_ignored += 1  # duplicate delivery: second finish ignored
                return  # terminal states are sticky (a cancel stays cancelled)
            job.status = "completed"
            job.points = int(record.get("points", 0))
            job.store = record.get("store")
            job.error = None
            job.finished_t = float(record.get("t", 0.0))
            self.breaker_streak = 0
        elif kind == "cancel":
            if job.terminal:
                return
            job.status = "cancelled"
            job.finished_t = float(record.get("t", 0.0))

    def apply_all(self, records) -> None:
        with self._lock:
            for record in records:
                self._apply_locked(record)

    # ---------------------------------------------------------------- views
    def get(self, job_id: str) -> JobState | None:
        """The job's state object, or None — the worker-thread lookup."""
        with self._lock:
            return self.jobs.get(job_id)

    def breaker_view(self) -> tuple[str, int]:
        """(breaker level, failure streak) as one consistent read."""
        with self._lock:
            return self.breaker, self.breaker_streak

    def statuses(self) -> dict[str, str]:
        """job_id → status, one consistent snapshot of the whole table."""
        with self._lock:
            return {job_id: j.status for job_id, j in self.jobs.items()}

    def job_snapshots(self) -> list[dict]:
        """JSON-ready snapshots of every job (status-report view)."""
        with self._lock:
            jobs = list(self.jobs.values())
        return [j.snapshot() for j in jobs]

    def eligible(self, now_t: float) -> list[JobState]:
        """Pending jobs whose backoff gate has passed, submission order."""
        with self._lock:
            return [
                j
                for j in self.jobs.values()
                if j.status == "pending" and j.not_before_t <= now_t
            ]

    def running(self) -> list[JobState]:
        with self._lock:
            return [j for j in self.jobs.values() if j.status == "running"]

    def open_jobs(self) -> list[JobState]:
        """Jobs not yet terminal (the daemon's remaining work)."""
        with self._lock:
            return [j for j in self.jobs.values() if not j.terminal]

    def counts(self) -> dict[str, int]:
        out = {"pending": 0, "running": 0, "completed": 0, "failed": 0, "cancelled": 0}
        with self._lock:
            for job in self.jobs.values():
                out[job.status] = out.get(job.status, 0) + 1
        return out
