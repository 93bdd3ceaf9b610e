"""Engine under injected faults: retry, timeout, fallback, quarantine, ^C.

Surviving points are compared against ``tests/golden/runpoints.json``
(the ``golden_points`` fixture).
"""

import pytest

from repro.core import ResultStore, StudyConfig, SweepEngine, SweepError
from repro.core.engine import execute_profile_job
from repro.faults import FaultPlan

CFG = StudyConfig(name="t", algorithms=("threshold", "clip"), sizes=(12,))
ONE = StudyConfig(name="t", algorithms=("threshold",), sizes=(12,))


def _assert_golden(expected: list[dict], result):
    assert [p.to_dict() for p in result.points] == expected


class _InterruptsOnClip:
    """A ``faults=`` stand-in whose picklable job body raises
    KeyboardInterrupt inside the clip worker."""

    def wrap_job(self, base, attempt):
        return self

    def corrupt_point(self, point):
        return point

    def __call__(self, job):
        if job.algorithm == "clip":
            raise KeyboardInterrupt("user hit ^C")
        return execute_profile_job(job)


class _Unpicklable:
    """A plan's faults behind a job body no pool can pickle."""

    def __init__(self, plan):
        self.plan = plan

    def wrap_job(self, base, attempt):
        body = self.plan.wrap_job(base, attempt)
        return lambda job: body(job)

    def corrupt_point(self, point):
        return self.plan.corrupt_point(point)


class TestInjectedCrashes:
    def test_serial_crash_retried_to_completion(self, golden_points):
        plan = FaultPlan(seed=5, worker_crash_p=1.0, max_faults_per_job=1)
        engine = SweepEngine(
            n_cycles=2, workers=0, max_retries=2, backoff_s=0.001, faults=plan
        )
        result = engine.run(ONE)
        assert engine.stats.faults_injected == 1
        assert engine.stats.retries == 1
        _assert_golden(golden_points(ONE), result)

    def test_pool_crash_retried_to_completion(self, golden_points):
        plan = FaultPlan(seed=5, worker_crash_p=1.0, max_faults_per_job=1)
        engine = SweepEngine(
            n_cycles=2, workers=2, max_retries=2, backoff_s=0.001, faults=plan
        )
        result = engine.run(CFG)
        assert engine.stats.faults_injected == 2  # one per profile job
        assert not engine.stats.fell_back_serial
        _assert_golden(golden_points(CFG), result)

    def test_crash_budget_deeper_than_retries_aborts(self):
        plan = FaultPlan(seed=5, worker_crash_p=1.0, max_faults_per_job=5)
        engine = SweepEngine(
            n_cycles=2, workers=0, max_retries=2, backoff_s=0.001, faults=plan
        )
        with pytest.raises(SweepError, match="injected worker crash"):
            engine.run(ONE)
        assert engine.stats.faults_injected == 3  # initial try + 2 retries


class TestInjectedHangs:
    def test_hang_trips_timeout_then_retry_completes(self, golden_points):
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
        _assert_golden(golden_points(CFG), result)


class TestSerialFallback:
    def test_broken_pool_with_faults_still_completes_identically(self, golden_points):
        """An unpicklable job body breaks the pool even before any fault
        fires; the serial fallback then absorbs the injected crashes too."""
        plan = FaultPlan(seed=5, worker_crash_p=1.0, max_faults_per_job=1)
        engine = SweepEngine(
            n_cycles=2,
            workers=2,
            max_retries=2,
            backoff_s=0.001,
            faults=_Unpicklable(plan),
        )
        result = engine.run(CFG)
        assert engine.stats.fell_back_serial
        assert engine.stats.faults_injected >= 1
        _assert_golden(golden_points(CFG), result)


class TestQuarantineGate:
    def test_corrupted_points_quarantined_not_stored(self, tmp_path, golden_points):
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
        clean = {(p["algorithm"], p["size"], p["cap_w"]): p for p in golden_points(ONE)}
        assert all(p.to_dict() == clean[p.key] for p in result.points)
        kinds = [e["kind"] for e in events]
        assert kinds.count("point-quarantined") == engine.stats.points_quarantined

    def test_resume_treats_quarantined_cells_as_finished(self, tmp_path):
        path = tmp_path / "s.jsonl"
        plan = FaultPlan(seed=41, point_corrupt_p=0.4)
        SweepEngine(n_cycles=2, workers=0, store=path, faults=plan).run(ONE)
        first = [p.key for p, _ in ResultStore(path).quarantined()]
        assert first
        for _ in range(2):
            resume = SweepEngine(n_cycles=2, workers=0, store=path, faults=plan)
            resume.run(ONE)
            assert resume.stats.points_computed == 0
            assert resume.stats.groups_skipped == 1
        # One record per quarantined cell, however often the sweep resumes.
        assert [p.key for p, _ in ResultStore(path).quarantined()] == first
        # Without the plan those cells would price clean; they stay out.
        clean = SweepEngine(n_cycles=2, workers=0, store=path)
        result = clean.run(ONE)
        assert clean.stats.points_computed == 0
        store = ResultStore(path)
        assert not store.quarantined_keys() & store.completed_keys()
        assert not set(first) & {p.key for p in result.points}


class TestKeyboardInterrupt:
    def test_pool_interrupt_syncs_store_and_resumes_exactly(self, tmp_path, golden_points):
        """Satellite: ^C mid-pool-sweep cancels in-flight work, leaves a
        valid store, and a plain --resume completes bitwise identically."""
        path = tmp_path / "s.jsonl"
        events = []
        engine = SweepEngine(
            n_cycles=2,
            workers=2,
            store=path,
            faults=_InterruptsOnClip(),
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
        _assert_golden(golden_points(CFG), resumed)

    def test_serial_interrupt_marks_stats_and_syncs(self, tmp_path):
        path = tmp_path / "s.jsonl"
        engine = SweepEngine(n_cycles=2, workers=0, store=path, faults=_InterruptsOnClip())
        with pytest.raises(KeyboardInterrupt):
            engine.run(CFG)
        assert engine.stats.interrupted
        assert len(ResultStore(path)) == len(CFG.caps_w)  # threshold group landed
