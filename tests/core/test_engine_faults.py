"""Engine under injected faults: retry, timeout, fallback, quarantine, ^C."""

import pytest

from repro.core import ResultStore, StudyConfig, StudyRunner, SweepEngine, SweepError
from repro.core.engine import execute_profile_job
from repro.faults import FaultPlan

CFG = StudyConfig(name="t", algorithms=("threshold", "clip"), sizes=(12,))
ONE = StudyConfig(name="t", algorithms=("threshold",), sizes=(12,))


def _assert_identical(a, b):
    assert len(a.points) == len(b.points)
    for pa, pb in zip(a.points, b.points):
        assert pa.to_dict() == pb.to_dict()


class _InterruptsOnClip:
    """Picklable job body: raises KeyboardInterrupt inside the clip worker."""

    def __call__(self, job):
        if job.algorithm == "clip":
            raise KeyboardInterrupt("user hit ^C")
        return execute_profile_job(job)


class TestInjectedCrashes:
    def test_serial_crash_retried_to_completion(self):
        plan = FaultPlan(seed=5, worker_crash_p=1.0, max_faults_per_job=1)
        engine = SweepEngine(
            n_cycles=2, workers=0, max_retries=2, backoff_s=0.001, faults=plan
        )
        result = engine.run(ONE)
        assert engine.stats.faults_injected == 1
        assert engine.stats.retries == 1
        _assert_identical(StudyRunner(n_cycles=2).run_config(ONE), result)

    def test_pool_crash_retried_to_completion(self):
        plan = FaultPlan(seed=5, worker_crash_p=1.0, max_faults_per_job=1)
        engine = SweepEngine(
            n_cycles=2, workers=2, max_retries=2, backoff_s=0.001, faults=plan
        )
        result = engine.run(CFG)
        assert engine.stats.faults_injected == 2  # one per profile job
        assert not engine.stats.fell_back_serial
        _assert_identical(StudyRunner(n_cycles=2).run_config(CFG), result)

    def test_crash_budget_deeper_than_retries_aborts(self):
        plan = FaultPlan(seed=5, worker_crash_p=1.0, max_faults_per_job=5)
        engine = SweepEngine(
            n_cycles=2, workers=0, max_retries=2, backoff_s=0.001, faults=plan
        )
        with pytest.raises(SweepError, match="injected worker crash"):
            engine.run(ONE)
        assert engine.stats.faults_injected == 3  # initial try + 2 retries


class TestInjectedHangs:
    def test_hang_trips_timeout_then_retry_completes(self):
        # Seed 0 hangs exactly one of the two jobs (clip@12, attempt 0),
        # so its timed-out retry runs on the other, idle worker.
        plan = FaultPlan(seed=0, worker_hang_p=0.5, hang_s=0.6, max_faults_per_job=1)
        assert plan.decide("worker-hang", "clip@12#0", plan.worker_hang_p)
        assert not plan.decide("worker-hang", "threshold@12#0", plan.worker_hang_p)
        engine = SweepEngine(
            n_cycles=2,
            workers=2,
            timeout_s=0.2,
            max_retries=2,
            backoff_s=0.001,
            faults=plan,
        )
        result = engine.run(CFG)
        assert engine.stats.retries >= 1  # at least one job timed out
        _assert_identical(StudyRunner(n_cycles=2).run_config(CFG), result)


class TestSerialFallback:
    def test_broken_pool_with_faults_still_completes_identically(self):
        """An unpicklable job body breaks the pool even before any fault
        fires; the serial fallback then absorbs the injected crashes too."""
        plan = FaultPlan(seed=5, worker_crash_p=1.0, max_faults_per_job=1)
        engine = SweepEngine(
            n_cycles=2,
            workers=2,
            max_retries=2,
            backoff_s=0.001,
            faults=plan,
            profile_fn=lambda job: execute_profile_job(job),
        )
        result = engine.run(CFG)
        assert engine.stats.fell_back_serial
        assert engine.stats.faults_injected >= 1
        parallel = SweepEngine(n_cycles=2, workers=2).run(CFG)
        _assert_identical(parallel, result)


class TestQuarantineGate:
    def test_corrupted_points_quarantined_not_stored(self, tmp_path):
        path = tmp_path / "s.jsonl"
        plan = FaultPlan(seed=41, point_corrupt_p=0.4)
        events = []
        engine = SweepEngine(
            n_cycles=2, workers=0, store=path, faults=plan, progress=events.append
        )
        result = engine.run(ONE)
        assert engine.stats.points_quarantined > 0

        store = ResultStore(path)
        quarantined = store.quarantined()
        assert len(quarantined) == engine.stats.points_quarantined
        qkeys = {p.key for p, _ in quarantined}
        # Quarantined cells are absent from both the store and the result.
        assert not qkeys & store.completed_keys()
        assert not qkeys & {p.key for p in result.points}
        assert all(reasons for _, reasons in quarantined)
        # Survivors are bitwise identical to a fault-free sweep.
        clean = {p.key: p.to_dict() for p in StudyRunner(n_cycles=2).run_config(ONE).points}
        assert all(p.to_dict() == clean[p.key] for p in result.points)
        kinds = [e["kind"] for e in events]
        assert kinds.count("point-quarantined") == engine.stats.points_quarantined


class TestKeyboardInterrupt:
    def test_pool_interrupt_syncs_store_and_resumes_exactly(self, tmp_path):
        """Satellite: ^C mid-pool-sweep cancels in-flight work, leaves a
        valid store, and a plain --resume completes bitwise identically."""
        path = tmp_path / "s.jsonl"
        events = []
        engine = SweepEngine(
            n_cycles=2,
            workers=2,
            store=path,
            profile_fn=_InterruptsOnClip(),
            progress=events.append,
        )
        with pytest.raises(KeyboardInterrupt):
            engine.run(CFG)
        assert engine.stats.interrupted
        assert any(e["kind"] == "interrupted" for e in events)

        # The store is valid and holds only complete points (0, 9, or 18
        # depending on how the race between the two workers resolved).
        saved = ResultStore(path)
        assert len(saved) % len(CFG.caps_w) == 0

        resume = SweepEngine(n_cycles=2, workers=0, store=path)
        resumed = resume.run(CFG)
        assert resume.stats.points_resumed == len(saved)
        assert not resume.stats.interrupted
        _assert_identical(StudyRunner(n_cycles=2).run_config(CFG), resumed)

    def test_serial_interrupt_marks_stats_and_syncs(self, tmp_path):
        path = tmp_path / "s.jsonl"
        engine = SweepEngine(
            n_cycles=2, workers=0, store=path, profile_fn=_InterruptsOnClip()
        )
        with pytest.raises(KeyboardInterrupt):
            engine.run(CFG)
        assert engine.stats.interrupted
        assert len(ResultStore(path)) == len(CFG.caps_w)  # threshold group landed
