"""Counter-based class prediction (the §VIII extension)."""

import pytest

from repro.core import (
    PowerClass,
    StudyConfig,
    SweepEngine,
    classify_result,
    predict_class,
    predicted_cap,
)
from repro.core.study import ALGORITHM_NAMES
from repro.machine.simulator import Processor

SIZE = 32


@pytest.fixture(scope="module")
def sweep_and_runs(study_profile):
    engine = SweepEngine(workers=0)
    cfg = StudyConfig(name="pred", algorithms=ALGORITHM_NAMES, sizes=(SIZE,))
    result = engine.run(cfg)
    processor = Processor(engine.spec)
    tdp_runs = {
        alg: processor.run(study_profile(alg, SIZE), 120.0) for alg in ALGORITHM_NAMES
    }
    return result, tdp_runs


class TestPredictClass:
    def test_matches_sweep_ground_truth(self, sweep_and_runs):
        """One-run prediction must agree with the 9-cap sweep for every
        study algorithm."""
        result, tdp_runs = sweep_and_runs
        truth = classify_result(result, size=SIZE)
        for alg, run in tdp_runs.items():
            pred = predict_class(run)
            assert pred.power_class is truth[alg].power_class, alg

    def test_confidence_in_range(self, sweep_and_runs):
        _, tdp_runs = sweep_and_runs
        for run in tdp_runs.values():
            p = predict_class(run)
            assert 0.5 <= p.confidence <= 1.0

    def test_sensitive_pair_high_signals(self, sweep_and_runs):
        _, tdp_runs = sweep_and_runs
        for alg in ("advection", "volume"):
            p = predict_class(tdp_runs[alg])
            assert p.power_class is PowerClass.SENSITIVE
            assert p.draw_fraction > 0.6
            assert p.ipc > 1.6

    def test_knees_are_tunable(self, sweep_and_runs):
        """Absurd knees flip the prediction (the knobs are live)."""
        _, tdp_runs = sweep_and_runs
        p = predict_class(tdp_runs["threshold"], draw_knee=0.01, ipc_knee=0.01)
        assert p.power_class is PowerClass.SENSITIVE


class TestPredictedCap:
    def test_within_rapl_range(self, sweep_and_runs):
        _, tdp_runs = sweep_and_runs
        for run in tdp_runs.values():
            cap = predicted_cap(run)
            assert 40.0 <= cap <= 120.0

    def test_prediction_is_safe(self, sweep_and_runs):
        """Running at the predicted cap must keep the slowdown within
        ~the tolerance for every algorithm (checked against the real
        sweep, with one 10 W bin of slack)."""
        result, tdp_runs = sweep_and_runs
        for alg, run in tdp_runs.items():
            cap = predicted_cap(run, tolerance=0.10)
            pts = result.select(algorithm=alg, size=SIZE)
            base = max(pts, key=lambda p: p.cap_w)
            at_or_above = [p for p in pts if p.cap_w >= cap - 1e-9]
            worst = max(p.tratio for p in at_or_above)
            assert worst <= 1.18, f"{alg}: cap {cap} -> tratio {worst}"

    def test_hungrier_algorithms_get_higher_caps(self, sweep_and_runs):
        _, tdp_runs = sweep_and_runs
        assert predicted_cap(tdp_runs["advection"]) > predicted_cap(tdp_runs["threshold"])
