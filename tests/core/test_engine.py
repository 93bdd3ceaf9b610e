"""Sweep engine: parallel == serial bitwise, resume, retry, fallback."""

import pytest

from repro.core import (
    ProfileJob,
    ResultStore,
    StoreMismatchError,
    StudyConfig,
    StudyRunner,
    SweepEngine,
    SweepError,
)
from repro.core.engine import execute_profile_job

CFG = StudyConfig(name="t", algorithms=("threshold", "clip"), sizes=(12,))


def _assert_identical(a, b):
    assert len(a.points) == len(b.points)
    for pa, pb in zip(a.points, b.points):
        assert pa.to_dict() == pb.to_dict()  # bitwise: dict holds raw floats


class _CountingJob:
    """Picklable-free counting wrapper (serial mode only)."""

    def __init__(self):
        self.calls = []

    def __call__(self, job):
        self.calls.append((job.algorithm, job.size))
        return execute_profile_job(job)


class _FlakyJob:
    def __init__(self, failures: int):
        self.failures = failures
        self.calls = 0

    def __call__(self, job):
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError("injected transient failure")
        return execute_profile_job(job)


class TestSerialEquivalence:
    def test_serial_engine_matches_runner_bitwise(self):
        serial = StudyRunner(n_cycles=2).run_config(CFG)
        engine = SweepEngine(n_cycles=2, workers=0)
        _assert_identical(serial, engine.run(CFG))

    def test_parallel_engine_matches_runner_bitwise(self):
        serial = StudyRunner(n_cycles=2).run_config(CFG)
        engine = SweepEngine(n_cycles=2, workers=2)
        _assert_identical(serial, engine.run(CFG))
        assert engine.stats.profile_jobs_run == 2
        assert not engine.stats.fell_back_serial


class TestResume:
    def test_resume_from_partial_store(self, tmp_path):
        """A store holding a strict subset of points completes the rest."""
        store_path = tmp_path / "s.jsonl"
        full = SweepEngine(n_cycles=2, workers=0, store=store_path).run(CFG)

        # Rebuild a store containing only the first 5 points (a sweep
        # killed mid-run), then resume.
        partial_path = tmp_path / "partial.jsonl"
        partial = ResultStore(partial_path)
        full_store = ResultStore(store_path)
        partial.ensure_compatible(full_store.fingerprint, full_store.meta)
        for p in full.points[:5]:
            partial.append(p)

        engine = SweepEngine(n_cycles=2, workers=0, store=ResultStore(partial_path))
        resumed = engine.run(CFG)
        _assert_identical(full, resumed)
        assert engine.stats.points_resumed == 5
        assert engine.stats.points_computed == len(full.points) - 5

    def test_resume_skips_completed_profile_jobs(self, tmp_path):
        """Only (algorithm, size) groups with missing points re-execute."""
        store_path = tmp_path / "s.jsonl"
        one = StudyConfig(name="t", algorithms=("threshold",), sizes=(12,))
        counter1 = _CountingJob()
        SweepEngine(n_cycles=2, workers=0, store=store_path, profile_fn=counter1).run(one)
        assert counter1.calls == [("threshold", 12)]

        # Extend the sweep: same store, an extra algorithm.
        counter2 = _CountingJob()
        engine = SweepEngine(n_cycles=2, workers=0, store=store_path, profile_fn=counter2)
        extended = engine.run(CFG)
        assert counter2.calls == [("clip", 12)]  # threshold group not re-run
        assert engine.stats.groups_skipped == 1
        _assert_identical(StudyRunner(n_cycles=2).run_config(CFG), extended)

    def test_interrupted_sweep_resumes_only_missing(self, tmp_path):
        """Kill mid-sweep (job 2 explodes), rerun, count executed jobs."""
        store_path = tmp_path / "s.jsonl"

        class _DiesOnSecond(_CountingJob):
            def __call__(self, job):
                if len(self.calls) >= 1:
                    raise KeyboardInterrupt("killed mid-sweep")
                return super().__call__(job)

        with pytest.raises(KeyboardInterrupt):
            SweepEngine(
                n_cycles=2, workers=0, store=store_path, profile_fn=_DiesOnSecond()
            ).run(CFG)
        assert 0 < len(ResultStore(store_path)) < CFG.n_configurations

        counter = _CountingJob()
        engine = SweepEngine(n_cycles=2, workers=0, store=store_path, profile_fn=counter)
        resumed = engine.run(CFG)
        assert counter.calls == [("clip", 12)]  # only the missing group
        _assert_identical(StudyRunner(n_cycles=2).run_config(CFG), resumed)

    def test_no_resume_wipes_store(self, tmp_path):
        store_path = tmp_path / "s.jsonl"
        SweepEngine(n_cycles=2, workers=0, store=store_path).run(CFG)
        engine = SweepEngine(n_cycles=2, workers=0, store=store_path)
        engine.run(CFG, resume=False)
        assert engine.stats.points_resumed == 0
        assert engine.stats.points_computed == CFG.n_configurations

    def test_fingerprint_mismatch_refuses_to_mix(self, tmp_path):
        store_path = tmp_path / "s.jsonl"
        SweepEngine(n_cycles=2, workers=0, store=store_path).run(CFG)
        with pytest.raises(StoreMismatchError, match="refusing to mix"):
            SweepEngine(n_cycles=3, workers=0, store=store_path).run(CFG)
        with pytest.raises(StoreMismatchError):
            SweepEngine(n_cycles=2, seed=8, workers=0, store=store_path).run(CFG)


class TestFailureHandling:
    def test_retry_then_succeed(self):
        flaky = _FlakyJob(failures=2)
        engine = SweepEngine(
            n_cycles=2, workers=0, max_retries=2, backoff_s=0.001, profile_fn=flaky
        )
        one = StudyConfig(name="t", algorithms=("threshold",), sizes=(12,))
        result = engine.run(one)
        assert len(result.points) == 9
        assert engine.stats.retries == 2
        _assert_identical(StudyRunner(n_cycles=2).run_config(one), result)

    def test_retry_budget_exhausted_raises(self):
        flaky = _FlakyJob(failures=10)
        engine = SweepEngine(
            n_cycles=2, workers=0, max_retries=1, backoff_s=0.001, profile_fn=flaky
        )
        with pytest.raises(SweepError, match="after 2 attempts"):
            engine.run(StudyConfig(name="t", algorithms=("threshold",), sizes=(12,)))

    def test_pool_failure_falls_back_to_serial(self):
        """An unpicklable job body breaks the pool; the sweep still finishes."""
        engine = SweepEngine(
            n_cycles=2, workers=2, profile_fn=lambda job: execute_profile_job(job)
        )
        result = engine.run(CFG)
        assert engine.stats.fell_back_serial
        _assert_identical(StudyRunner(n_cycles=2).run_config(CFG), result)


class TestProgressAndStats:
    def test_progress_events_emitted(self):
        events = []
        engine = SweepEngine(n_cycles=1, workers=0, progress=events.append)
        engine.run(CFG)
        kinds = [e["kind"] for e in events]
        assert kinds.count("profile-done") == 2
        assert kinds[-1] == "summary"
        summary = events[-1]
        assert summary["points"] == CFG.n_configurations
        assert summary["wall_s"] > 0
        assert summary["throughput_pts_s"] > 0

    def test_progress_and_trace_receive_the_same_events(self):
        from repro.obs.trace import Tracer

        events = []
        tracer = Tracer()
        engine = SweepEngine(
            n_cycles=1,
            workers=0,
            backoff_s=0.001,
            profile_fn=_FlakyJob(failures=1),
            progress=events.append,
            trace=tracer,
        )
        engine.run(CFG)
        traced = [
            {"kind": r["name"], **r["attrs"]}
            for r in tracer.records()
            if r["kind"] == "event"
        ]
        assert traced == events
        kinds = [e["kind"] for e in events]
        assert kinds == ["retry", "profile-done", "profile-done", "summary"]

    def test_ledger_cache_short_circuits_jobs(self, tmp_path):
        cache_path = tmp_path / "c.json"
        from repro.core import ProfileCache

        e1 = SweepEngine(n_cycles=2, workers=0, profile_cache=ProfileCache(cache_path))
        e1.run(CFG)
        assert e1.stats.profile_jobs_run == 2
        e2 = SweepEngine(n_cycles=2, workers=0, profile_cache=ProfileCache(cache_path))
        _assert_identical(e1.run(CFG), e2.run(CFG))
        assert e2.stats.profile_jobs_run == 0
        assert e2.stats.profile_jobs_cached == 2

    def test_profile_job_is_picklable(self):
        import pickle

        job = ProfileJob("threshold", 12, "blobs", 7)
        assert pickle.loads(pickle.dumps(job)) == job
