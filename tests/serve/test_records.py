"""One record per queue decision: what the daemon appends, it counts and traces."""

import json
import time
from collections import Counter

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.serve import QueueState, Supervisor, WriteAheadLog

pytestmark = pytest.mark.timeout(120)


def test_every_daemon_record_is_counted_and_traced_once(tmp_path):
    """A retried job, a job with a bad input, an orphaned lease and a
    long job that needs heartbeats: each WAL record the daemon appends
    is one ``serve-<kind>`` trace event with the same fields, and one
    step of the counter its kind maps to."""
    client = WriteAheadLog(tmp_path / "wal.jsonl")
    spec = {"study": {"name": "t"}, "max_retries": 2}
    for job_id in ("job-flaky", "job-bad-input", "job-orphan", "job-long"):
        client.append({"kind": "submit", "job_id": job_id, "spec": spec, "t": time.time()})
    client.append(
        {"kind": "claim", "job_id": "job-orphan", "worker": "dead", "deadline_t": 0.0, "t": 0.0}
    )
    client_records = len(client.replay())

    def runner(job, progress=None):
        if job.job_id == "job-flaky" and job.failures == 0:
            raise RuntimeError("flaky")
        if job.job_id == "job-bad-input":
            raise ValueError("a store of another version")
        if job.job_id == "job-long":
            time.sleep(0.5)  # longer than the lease: needs heartbeats
        return {"points": 1, "store": "s"}

    tracer, metrics, state = Tracer(), MetricsRegistry(), QueueState()
    Supervisor(
        WriteAheadLog(client.path), state, runner, workers=2, lease_s=0.3,
        poll_interval_s=0.01, backoff_base_s=0.01, backoff_cap_s=0.05,
        metrics=metrics, tracer=tracer,
    ).run(drain=True)

    daemon = client.replay()[client_records:]
    traced = [
        {"kind": r["name"].removeprefix("serve-"), **r["attrs"]}
        for r in tracer.records()
        if r["kind"] == "event" and r["name"].startswith("serve-")
    ]
    as_text = lambda records: sorted(json.dumps(r, sort_keys=True) for r in records)
    assert as_text(traced) == as_text(daemon)

    kinds = Counter((r["kind"], r.get("reason")) for r in daemon)
    assert kinds["heartbeat", None] >= 1
    assert metrics.counter("repro_serve_heartbeats_total").value == kinds["heartbeat", None]
    assert metrics.counter("repro_serve_retries_total").value == kinds["requeue", "retry"] == 1
    assert (
        metrics.counter("repro_serve_lease_expirations_total").value
        == kinds["requeue", "lease-expired"]
        == 1
    )
    completed = metrics.counter("repro_serve_jobs_total", outcome="completed").value
    failed = metrics.counter("repro_serve_jobs_total", outcome="failed").value
    assert (completed, failed) == (kinds["complete", None], kinds["fail", None]) == (3, 1)
    retry = next(r for r in daemon if r.get("reason") == "retry")
    assert retry["error"] == "RuntimeError: flaky"
