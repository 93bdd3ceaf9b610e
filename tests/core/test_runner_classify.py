"""Study sweeps, classification, advisor, and reports (small sweeps)."""

import numpy as np
import pytest

from repro.core import (
    PowerClass,
    StudyConfig,
    SweepEngine,
    classify,
    classify_result,
    figure2_series,
    figure3_series,
    ipc_by_size_series,
    recommend_cap,
    render_slowdown_table,
    render_table1,
)
from repro.core.profiles import profile_from_ledger


@pytest.fixture(scope="module")
def mini_result():
    """Small but complete sweep: 3 algorithms x 2 sizes x all caps."""
    engine = SweepEngine(n_cycles=5, workers=0)
    cfg = StudyConfig(name="mini", algorithms=("contour", "threshold", "volume"), sizes=(16, 24))
    return engine.run(cfg), engine


class TestRunner:
    def test_point_grid_complete(self, mini_result):
        result, _ = mini_result
        assert len(result.points) == 3 * 2 * 9

    def test_baseline_is_highest_cap(self, mini_result):
        result, _ = mini_result
        base = result.baseline("contour", 16)
        assert base.cap_w == 120.0
        assert base.tratio == pytest.approx(1.0)
        assert base.pratio == pytest.approx(1.0)

    def test_select_filters(self, mini_result):
        result, _ = mini_result
        sel = result.select(algorithm="volume", size=24)
        assert len(sel) == 9
        assert all(p.algorithm == "volume" and p.size == 24 for p in sel)

    def test_tratio_non_decreasing_with_tighter_caps(self, mini_result):
        result, _ = mini_result
        for alg in result.algorithms:
            pts = sorted(result.select(algorithm=alg, size=16), key=lambda p: -p.cap_w)
            tr = [p.tratio for p in pts]
            assert all(b >= a - 1e-9 for a, b in zip(tr, tr[1:]))

    def test_profiles_cached(self, mini_result, study_profile):
        """After a sweep, its ledgers give the profiles a fresh execution does."""
        _, engine = mini_result
        ledger = engine.profile_cache.get("contour", 16)
        cached = profile_from_ledger("contour", 16, ledger, n_cycles=engine.n_cycles)
        assert cached.segments == study_profile("contour", 16, n_cycles=engine.n_cycles).segments

    def test_profile_scaled_by_cycles(self, study_profile):
        i1 = study_profile("threshold", 16, n_cycles=1).total_instructions
        i5 = study_profile("threshold", 16, n_cycles=5).total_instructions
        assert i5 == pytest.approx(5 * i1, rel=1e-9)

    def test_unknown_algorithm(self, study_profile):
        with pytest.raises(KeyError):
            study_profile("nope", 16)


class TestClassification:
    def test_volume_sensitive_cellcentered_opportunity(self, mini_result):
        result, _ = mini_result
        classes = classify_result(result, size=16)
        assert classes["volume"].power_class is PowerClass.SENSITIVE
        assert classes["contour"].power_class is PowerClass.OPPORTUNITY
        assert classes["threshold"].power_class is PowerClass.OPPORTUNITY

    def test_classification_carries_evidence(self, mini_result):
        result, _ = mini_result
        c = classify_result(result, size=16)["volume"]
        assert c.natural_power_w > 70
        assert c.baseline_ipc > 1.5

    def test_classify_rejects_mixed_input(self, mini_result):
        result, _ = mini_result
        with pytest.raises(ValueError):
            classify(result.points)

    def test_classify_result_needs_single_size(self, mini_result):
        result, _ = mini_result
        with pytest.raises(ValueError, match="spans sizes"):
            classify_result(result)


class TestAdvisor:
    def test_opportunity_algorithm_gets_deep_cap(self, mini_result):
        result, _ = mini_result
        rec = recommend_cap(result.select(algorithm="threshold", size=16))
        assert rec.cap_w <= 50.0
        assert rec.predicted_tratio <= 1.10

    def test_sensitive_algorithm_keeps_high_cap(self, mini_result):
        result, _ = mini_result
        rec = recommend_cap(result.select(algorithm="volume", size=16))
        assert rec.cap_w >= 70.0


class TestReports:
    def test_table1_renders(self, mini_result):
        result, _ = mini_result
        text = render_table1(result, algorithm="contour", size=16)
        assert "Table I" in text
        assert "120W" in text and "40W" in text
        assert text.count("\n") >= 10

    def test_slowdown_table_lists_all_algorithms(self, mini_result):
        result, _ = mini_result
        text = render_slowdown_table(result, size=16)
        for alg in ("contour", "threshold", "volume"):
            assert alg in text

    def test_missing_data_raises(self, mini_result):
        result, _ = mini_result
        with pytest.raises(KeyError):
            render_table1(result, algorithm="contour", size=999)

    def test_figure2_series(self, mini_result):
        result, _ = mini_result
        fig = figure2_series(result, size=16)
        assert set(fig) == {"frequency", "ipc", "llc_miss_rate"}
        s = fig["frequency"]["contour"]
        assert s.x == tuple(sorted(s.x))
        assert len(s.y) == 9

    def test_figure3_series(self, mini_result):
        result, _ = mini_result
        fig = figure3_series(result, size=16, algorithms=("contour", "threshold"))
        rate = fig["threshold"].y
        assert all(r > 0 for r in rate)

    def test_ipc_by_size_series(self, mini_result):
        result, _ = mini_result
        series = ipc_by_size_series(result, algorithm="contour")
        assert set(series) == {16, 24}
