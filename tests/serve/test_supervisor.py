"""Supervisor behavior with a stub runner (no engine, fast clocks)."""

import threading
import time

import pytest

from repro.core.engine import SweepInterrupted
from repro.obs.metrics import MetricsRegistry
from repro.serve import QueueState, Supervisor, WriteAheadLog

pytestmark = pytest.mark.timeout(120)


def make_queue(tmp_path, *jobs, max_retries=2):
    wal = WriteAheadLog(tmp_path / "wal.jsonl")
    for job_id in jobs:
        wal.append(
            {
                "kind": "submit",
                "job_id": job_id,
                "spec": {"study": {"name": "t"}, "max_retries": max_retries},
                "t": time.time(),
            }
        )
    return wal, QueueState()


def make_supervisor(wal, state, runner, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("lease_s", 0.5)
    kwargs.setdefault("poll_interval_s", 0.01)
    kwargs.setdefault("backoff_base_s", 0.01)
    kwargs.setdefault("backoff_cap_s", 0.05)
    kwargs.setdefault("metrics", MetricsRegistry())
    return Supervisor(wal, state, runner, **kwargs)


def drain(sup):
    sup.run(drain=True)


class TestHappyPath:
    def test_drains_all_jobs_to_completed(self, tmp_path):
        wal, state = make_queue(tmp_path, "job-a", "job-b", "job-c")
        ran = []

        def runner(job, progress=None):
            ran.append(job.job_id)
            return {"points": 4, "store": f"{job.job_id}.jsonl"}

        sup = make_supervisor(wal, state, runner)
        drain(sup)
        assert sorted(ran) == ["job-a", "job-b", "job-c"]
        assert state.counts()["completed"] == 3
        job = state.jobs["job-a"]
        assert job.points == 4 and job.store == "job-a.jsonl"

    def test_jobs_submitted_while_running_are_picked_up(self, tmp_path):
        wal, state = make_queue(tmp_path, "job-a")
        client = WriteAheadLog(tmp_path / "wal.jsonl")
        submitted = threading.Event()

        def runner(job, progress=None):
            if job.job_id == "job-a" and not submitted.is_set():
                client.append(
                    {
                        "kind": "submit",
                        "job_id": "job-late",
                        "spec": {"study": {"name": "t"}, "max_retries": 0},
                        "t": time.time(),
                    }
                )
                submitted.set()
            return {"points": 1, "store": "s"}

        sup = make_supervisor(wal, state, runner)
        drain(sup)
        assert state.counts()["completed"] == 2

    def test_cancelled_job_is_never_delivered(self, tmp_path):
        wal, state = make_queue(tmp_path, "job-a")
        wal.append({"kind": "cancel", "job_id": "job-a", "t": time.time()})
        ran = []

        def runner(job, progress=None):
            ran.append(job.job_id)
            return {"points": 1, "store": "s"}

        sup = make_supervisor(wal, state, runner)
        drain(sup)
        assert ran == []
        assert state.jobs["job-a"].status == "cancelled"


class TestRetries:
    def test_flaky_job_retried_then_completes(self, tmp_path):
        wal, state = make_queue(tmp_path, "job-a", max_retries=2)
        attempts = []

        def runner(job, progress=None):
            attempts.append(job.failures)
            if len(attempts) < 3:
                raise RuntimeError("flaky")
            return {"points": 1, "store": "s"}

        metrics = MetricsRegistry()
        sup = make_supervisor(wal, state, runner, metrics=metrics)
        drain(sup)
        assert attempts == [0, 1, 2]
        assert state.jobs["job-a"].status == "completed"
        assert metrics.counter("repro_serve_retries_total").value == 2

    def test_retry_budget_exhaustion_fails_terminally(self, tmp_path):
        wal, state = make_queue(tmp_path, "job-a", max_retries=1)

        def runner(job, progress=None):
            raise RuntimeError("always broken")

        metrics = MetricsRegistry()
        sup = make_supervisor(wal, state, runner, metrics=metrics)
        drain(sup)
        job = state.jobs["job-a"]
        assert job.status == "failed"
        assert "always broken" in job.error
        assert job.failures == 2  # initial delivery + 1 retry
        assert metrics.counter("repro_serve_jobs_total", outcome="failed").value == 1

    def test_retry_backoff_is_recorded_in_requeue_records(self, tmp_path):
        wal, state = make_queue(tmp_path, "job-a", max_retries=2)

        def runner(job, progress=None):
            if job.failures < 2:
                raise RuntimeError("flaky")
            return {"points": 1, "store": "s"}

        sup = make_supervisor(wal, state, runner)
        drain(sup)
        requeues = [r for r in wal.replay() if r["kind"] == "requeue"]
        assert len(requeues) == 2
        for r in requeues:
            assert r["reason"] == "retry"
            assert 0.0 < r["backoff_s"] <= 0.05  # capped + jittered
            assert r["not_before_t"] > r["t"]


class TestLeases:
    def test_orphaned_lease_from_dead_daemon_is_reclaimed(self, tmp_path):
        # A previous daemon claimed the job and died: replay reconstructs
        # it as running with an expired lease; this daemon requeues and
        # finishes it.
        wal, state = make_queue(tmp_path, "job-a")
        wal.append(
            {
                "kind": "claim",
                "job_id": "job-a",
                "worker": "dead-w0",
                "lease_s": 0.5,
                "deadline_t": time.time() - 10.0,
                "t": time.time() - 11.0,
            }
        )
        metrics = MetricsRegistry()
        sup = make_supervisor(
            wal, state, lambda job, progress=None: {"points": 1, "store": "s"},
            metrics=metrics,
        )
        drain(sup)
        assert state.jobs["job-a"].status == "completed"
        assert metrics.counter("repro_serve_lease_expirations_total").value == 1
        reasons = [r["reason"] for r in wal.replay() if r["kind"] == "requeue"]
        assert "lease-expired" in reasons

    def test_expiration_budget_fails_a_ping_ponging_job(self, tmp_path):
        wal, state = make_queue(tmp_path, "job-a")
        sup = make_supervisor(
            wal, state, lambda job, progress=None: {"points": 1, "store": "s"},
            breaker_threshold=1,
        )
        # Simulate a job whose lease already expired past the budget.
        wal.append(
            {
                "kind": "claim",
                "job_id": "job-a",
                "worker": "dead",
                "deadline_t": 0.0,
                "t": 0.0,
            }
        )
        for _ in range(sup.max_lease_expirations + 1):
            state.apply_all(wal.poll())
            sup._reclaim_leases()
            job = state.jobs["job-a"]
            if job.status == "failed":
                break
            wal.append(
                {"kind": "claim", "job_id": "job-a", "worker": "dead",
                 "deadline_t": 0.0, "t": 0.0}
            )
        assert state.jobs["job-a"].status == "failed"
        assert "lease expired" in state.jobs["job-a"].error

    def test_heartbeats_keep_long_jobs_leased(self, tmp_path):
        wal, state = make_queue(tmp_path, "job-a")
        lease_s = 0.3

        def runner(job, progress=None):
            time.sleep(3 * lease_s)  # longer than the lease: needs beats
            return {"points": 1, "store": "s"}

        metrics = MetricsRegistry()
        sup = make_supervisor(
            wal, state, runner, lease_s=lease_s, workers=1, metrics=metrics
        )
        drain(sup)
        assert state.jobs["job-a"].status == "completed"
        assert metrics.counter("repro_serve_heartbeats_total").value >= 1
        assert metrics.counter("repro_serve_lease_expirations_total").value == 0


class TestBreaker:
    def test_streak_degrades_then_opens_then_success_closes(self, tmp_path):
        wal, state = make_queue(tmp_path, "job-a", max_retries=6)
        threshold = 2
        calls = []

        def runner(job, progress=None):
            calls.append(job.failures)
            if job.failures < 5:
                raise RuntimeError("warming up")
            return {"points": 1, "store": "s"}

        sup = make_supervisor(
            wal, state, runner, breaker_threshold=threshold, workers=2
        )
        drain(sup)
        states = [r["state"] for r in wal.replay() if r["kind"] == "breaker"]
        assert "degraded" in states and "open" in states
        assert states[-1] == "closed"  # the success reset the streak
        assert state.jobs["job-a"].status == "completed"

    def test_degraded_breaker_limits_dispatch_capacity(self, tmp_path):
        wal, state = make_queue(tmp_path, "job-a", "job-b", "job-c")
        state.apply_all(wal.poll())
        state.breaker = "degraded"
        sup = make_supervisor(
            wal, state, lambda job, progress=None: {"points": 1, "store": "s"},
            workers=3,
        )
        assert sup._capacity() == 1
        state.breaker = "closed"
        assert sup._capacity() == 3


class TestShutdown:
    def test_stop_requeues_running_job_for_the_next_daemon(self, tmp_path):
        wal, state = make_queue(tmp_path, "job-a")
        started = threading.Event()

        def runner(job, progress=None):
            started.set()
            for _ in range(1000):
                time.sleep(0.01)
                progress({"event": "tick"})  # raises SweepInterrupted on stop
            return {"points": 1, "store": "s"}

        sup = make_supervisor(wal, state, runner, workers=1)
        t = threading.Thread(target=sup.run, daemon=True)
        t.start()
        assert started.wait(5.0)
        sup.stop()
        t.join(timeout=10.0)
        assert not t.is_alive()
        job = state.jobs["job-a"]
        assert job.status == "pending"  # requeued, not lost or failed
        assert job.failures == 0  # shutdown is not a failure
        reasons = [r["reason"] for r in wal.replay() if r["kind"] == "requeue"]
        assert reasons == ["shutdown"]

    def test_runner_sweepinterrupted_is_not_a_retry(self, tmp_path):
        wal, state = make_queue(tmp_path, "job-a")
        delivered = []

        def runner(job, progress=None):
            if not delivered:
                delivered.append(job.job_id)
                raise SweepInterrupted("previous generation stopping")
            return {"points": 1, "store": "s"}

        metrics = MetricsRegistry()
        sup = make_supervisor(wal, state, runner, metrics=metrics)
        drain(sup)
        assert state.jobs["job-a"].status == "completed"
        assert metrics.counter("repro_serve_retries_total").value == 0


class TestMetrics:
    def test_gauges_published_after_drain(self, tmp_path):
        wal, state = make_queue(tmp_path, "job-a")
        metrics = MetricsRegistry()
        sup = make_supervisor(
            wal, state, lambda job, progress=None: {"points": 1, "store": "s"},
            metrics=metrics,
        )
        drain(sup)
        assert metrics.gauge("repro_serve_queue_depth").value == 0
        assert metrics.gauge("repro_serve_running").value == 0
        assert metrics.gauge("repro_serve_breaker_state").value == 0
        assert metrics.counter("repro_serve_jobs_total", outcome="completed").value == 1

    def test_constructor_validation(self, tmp_path):
        wal, state = make_queue(tmp_path)
        runner = lambda job, progress=None: {}
        with pytest.raises(ValueError):
            Supervisor(wal, state, runner, workers=0)
        with pytest.raises(ValueError):
            Supervisor(wal, state, runner, lease_s=0.0)
        with pytest.raises(ValueError):
            Supervisor(wal, state, runner, poll_interval_s=-1.0)
        with pytest.raises(ValueError):
            Supervisor(wal, state, runner, breaker_threshold=0)
