"""Supervised sweep service: durable job queue + worker supervision.

``repro.serve`` turns the one-shot sweep machinery into a long-running,
crash-safe service.  Three pieces, bottom-up:

* :mod:`repro.serve.wal` — the durable job queue.  Every submission,
  claim, heartbeat, retry, and completion is one appended JSONL record
  in a write-ahead log; in-memory queue state is *always* derived by
  replaying that file, so a ``kill -9``'d daemon restarts into exactly
  the state it died in (torn tails tolerated, corrupt lines skipped and
  counted).

* :mod:`repro.serve.supervisor` — the worker supervisor.  A bounded
  thread pool runs studies under leases that the control loop extends
  with heartbeats; expired leases are reclaimed and requeued, failures
  retry on the capped+jittered backoff shared with the engine, and a
  circuit breaker degrades the pool (serial fallback, then
  load-shedding) instead of collapsing.  Each decision is one WAL
  record, counted and traced (``serve-<kind>``) by the same call.

* :mod:`repro.serve.service` — the client/daemon surface.
  :class:`~repro.serve.service.SweepService` owns a *spool* directory
  (WAL + per-job result stores + shared profile caches) and exposes
  ``submit``/``status``/``cancel``/``report`` plus ``run_daemon``.
  Because the WAL is the IPC, clients and the daemon are just
  different processes reading the same file; each append also rings
  the WAL's doorbell FIFO, which wakes a daemon waiting between passes.

See ``docs/robustness.md`` ("service-layer failure modes") for the
failure matrix and the degradation ladder.
"""

from .service import DEFAULT_SPOOL, SubmitReceipt, SweepService
from .supervisor import Supervisor
from .wal import TERMINAL_STATUSES, WAL_FORMAT, WAL_VERSION, JobState, QueueState, WriteAheadLog

__all__ = [
    "DEFAULT_SPOOL",
    "JobState",
    "QueueState",
    "SubmitReceipt",
    "Supervisor",
    "SweepService",
    "TERMINAL_STATUSES",
    "WAL_FORMAT",
    "WAL_VERSION",
    "WriteAheadLog",
]
