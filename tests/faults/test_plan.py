"""Fault plans: deterministic decisions, bounded engine faults, corruption."""

import pickle
import time
from dataclasses import replace

import pytest

from repro.core import StudyConfig, SweepEngine
from repro.core.engine import ProfileJob, execute_profile_job
from repro.faults import PLANS, FaultPlan, InjectedFault, get_plan

JOB = ProfileJob("threshold", 12)

#: (plan name, fault schedule) per drill, for the re-seed check.
SCHEDULES = {
    "sweep": ("hostile", lambda p: [p.decide("s", f"k{i}", 0.5) for i in range(64)]),
    "service": ("default", lambda p: [p.duplicate_claim(f"job-{i}") for i in range(64)]),
    "governor": ("default", lambda p: p.dropout_indices(64)),
}


def _ok(job):
    return {"ok": 1.0}


class TestDecisions:
    def test_decide_is_deterministic(self):
        plan = FaultPlan(seed=3)
        for key in ("a", "b", "c#0", "c#1"):
            first = plan.decide("site", key, 0.5)
            assert all(plan.decide("site", key, 0.5) == first for _ in range(5))

    def test_decide_edge_probabilities(self):
        plan = FaultPlan(seed=3)
        keys = [f"k{i}" for i in range(200)]
        assert not any(plan.decide("s", k, 0.0) for k in keys)
        assert all(plan.decide("s", k, 1.0) for k in keys)

    def test_decide_frequency_tracks_probability(self):
        plan = FaultPlan(seed=3)
        hits = sum(plan.decide("s", f"k{i}", 0.3) for i in range(2000))
        assert 0.2 < hits / 2000 < 0.4

    def test_gauss_deterministic_and_centered(self):
        plan = FaultPlan(seed=3)
        draws = [plan.gauss("s", f"k{i}", 2.0) for i in range(2000)]
        assert draws == [plan.gauss("s", f"k{i}", 2.0) for i in range(2000)]
        assert abs(sum(draws) / len(draws)) < 0.2
        assert plan.gauss("s", "k", 0.0) == 0.0

    def test_with_seed_changes_the_schedule(self):
        a, b = FaultPlan(seed=1), replace(FaultPlan(seed=1), seed=2)
        keys = [f"k{i}" for i in range(100)]
        assert [a.decide("s", k, 0.5) for k in keys] != [b.decide("s", k, 0.5) for k in keys]

    @pytest.mark.parametrize("drill", sorted(SCHEDULES))
    def test_get_plan_seed_reschedules_every_plan_type(self, drill):
        name, schedule = SCHEDULES[drill]
        assert get_plan(name, drill, seed=5).seed == 5
        assert get_plan(name, drill).seed == PLANS[drill][name].seed
        # Fresh copies each time: a service injector's draws fire once per job.
        first, again, other = (schedule(get_plan(name, drill, seed=s)) for s in (1, 1, 2))
        assert first == again != other

    def test_invalid_probabilities_rejected(self):
        for f in ("worker_crash_p", "sample_dropout_p", "point_corrupt_p"):
            with pytest.raises(ValueError, match="probability"):
                FaultPlan(**{f: 1.5})
            with pytest.raises(ValueError, match="probability"):
                FaultPlan(**{f: -0.1})
        with pytest.raises(ValueError, match="non-negative"):
            FaultPlan(max_faults_per_job=-1)

    def test_get_plan(self):
        # Every drill's every entry resolves to an equal, separate copy.
        assert set(PLANS) == {"sweep", "service", "governor"}
        for drill, plans in PLANS.items():
            for name, plan in plans.items():
                copy = get_plan(name, drill)
                assert copy == plan and copy is not plan, (drill, name)
        assert get_plan("default") == PLANS["sweep"]["default"]
        with pytest.raises(
            ValueError,
            match=r"unknown fault plan 'nope' for the sweep drill; expected one of "
            r"\['default', 'engine', 'hostile', 'machine', 'store'\]",
        ):
            get_plan("nope")


class TestWrapJob:
    def test_crash_bounded_by_max_faults_per_job(self):
        plan = FaultPlan(seed=5, worker_crash_p=1.0, max_faults_per_job=2)
        for attempt in (0, 1):
            with pytest.raises(InjectedFault):
                plan.wrap_job(_ok, attempt)(JOB)
        assert plan.wrap_job(_ok, 2)(JOB) == {"ok": 1.0}

    def test_hang_stalls_then_completes(self):
        plan = FaultPlan(seed=5, worker_hang_p=1.0, hang_s=0.05)
        t0 = time.perf_counter()
        assert plan.wrap_job(_ok, 0)(JOB) == {"ok": 1.0}
        assert time.perf_counter() - t0 >= 0.04

    def test_noop_plan_passes_through(self):
        assert FaultPlan().wrap_job(_ok, 0)(JOB) == {"ok": 1.0}

    def test_wrapped_job_is_picklable(self):
        plan = FaultPlan(seed=5, worker_crash_p=1.0)
        wrapped = plan.wrap_job(execute_profile_job, 0)
        clone = pickle.loads(pickle.dumps(wrapped))
        with pytest.raises(InjectedFault):
            clone(JOB)


class TestCorruptPoint:
    @pytest.fixture(scope="class")
    def points(self):
        cfg = StudyConfig(name="t", algorithms=("threshold",), sizes=(12,))
        return SweepEngine(n_cycles=1, workers=0).run(cfg).points

    def test_zero_probability_returns_point_unchanged(self, points):
        plan = FaultPlan(seed=5)
        assert all(plan.corrupt_point(p) is p for p in points)

    def test_corruption_is_deterministic(self, points):
        plan = FaultPlan(seed=5, point_corrupt_p=1.0)
        a = [plan.corrupt_point(p).to_jsonl() for p in points]
        b = [plan.corrupt_point(p).to_jsonl() for p in points]
        assert a == b

    def test_corruption_changes_a_checked_field(self, points):
        plan = FaultPlan(seed=5, point_corrupt_p=1.0)
        for p in points:
            c = plan.corrupt_point(p)
            assert c.key == p.key  # coordinates survive; values don't
            assert c.to_jsonl() != p.to_jsonl()
