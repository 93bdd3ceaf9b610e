"""PowerAdvisor service, its ledger store, and recommend_cap edge cases."""

import json

import pytest

from repro import api
from repro.core import advisor as advisor_module
from repro.core.advisor import PowerAdvisor, recommend_cap
from repro.core.engine import SweepEngine
from repro.core.metrics import Ratios
from repro.core.pricing import BatchRepricer
from repro.core.profiles import ProfileCache
from repro.core.runner import RunPoint
from repro.core.study import ALGORITHM_NAMES, POWER_CAPS_W, StudyConfig
from repro.machine.presets import ALL_PRESETS, SKYLAKE_LIKE

SIZE = 12


def _point(cap_w, tratio, power_w=None, algorithm="contour", size=16):
    """Minimal RunPoint for recommendation-logic tests."""
    return RunPoint(
        algorithm=algorithm,
        size=size,
        cap_w=cap_w,
        time_s=tratio,
        energy_j=1.0,
        power_w=cap_w if power_w is None else power_w,
        freq_ghz=2.0,
        ipc=1.0,
        llc_miss_rate=0.01,
        ratios=Ratios(pratio=120.0 / cap_w, tratio=tratio, fratio=1.0),
    )


class TestRecommendCap:
    def test_picks_deepest_tolerable(self):
        pts = [_point(120.0, 1.0), _point(80.0, 1.05), _point(40.0, 1.5)]
        rec = recommend_cap(pts, tolerance=0.10)
        assert rec.cap_w == 80.0

    def test_empty_tolerable_falls_back_to_tdp_baseline(self):
        pts = [_point(120.0, 1.2), _point(80.0, 1.4), _point(40.0, 1.9)]
        rec = recommend_cap(pts, tolerance=0.10)
        assert rec.cap_w == 120.0
        assert rec.power_saved_w == 0.0

    def test_cap_ties_resolve_deterministically(self):
        # Two tolerable points share the deepest cap; the earliest in
        # input order must win, every time.
        first = _point(60.0, 1.01, power_w=55.0)
        second = _point(60.0, 1.02, power_w=50.0)
        pts = [_point(120.0, 1.0), first, second]
        for _ in range(5):
            rec = recommend_cap(pts, tolerance=0.10)
            assert rec.predicted_tratio == first.tratio

    def test_single_point_input(self):
        rec = recommend_cap([_point(120.0, 1.0)])
        assert rec.cap_w == 120.0
        assert rec.power_saved_w == 0.0

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            recommend_cap([])


class TestPowerAdvisor:
    @pytest.fixture(scope="class")
    def adv(self, tmp_path_factory):
        cache = ProfileCache(tmp_path_factory.mktemp("advise") / "ledgers.json")
        return PowerAdvisor(cache=cache, n_cycles=5)

    def test_cold_miss_then_warm_hit(self, adv):
        first = adv.advise("contour", SIZE)
        assert not first.cache_hit
        second = adv.advise("contour", SIZE)
        assert second.cache_hit
        assert second.recommendation == first.recommendation
        assert second.latency_s < first.latency_s

    def test_cap_override_prices_requested_cap(self, adv):
        advice = adv.advise("contour", SIZE, cap_w=60.0)
        assert advice.point.cap_w == 60.0
        # The recommendation is independent of the priced cap.
        assert advice.recommendation.cap_w in adv.caps_w

    def test_off_grid_cap_priced_consistently(self, adv):
        advice = adv.advise("contour", SIZE, cap_w=63.5)
        assert advice.point.cap_w == 63.5
        assert advice.point.time_s > 0

    def test_warm_counts_only_new_ledgers(self, adv):
        assert adv.warm(["threshold"], [SIZE]) == 1
        assert adv.warm(["threshold"], [SIZE]) == 0

    def test_grid_matches_per_point_recommendation(self, adv):
        # Property: recommending from the batch-repriced grid gives the
        # same answer as recommending from a per-query advise() call.
        algorithms = list(ALGORITHM_NAMES[:3])
        points = adv.reprice_grid(algorithms, [SIZE])
        for alg in algorithms:
            grid_pts = [p for p in points if p.algorithm == alg]
            grid_rec = recommend_cap(grid_pts, tolerance=adv.tolerance)
            assert grid_rec == adv.advise(alg, SIZE).recommendation

    def test_advice_latency_is_measured(self, adv):
        advice = adv.advise("contour", SIZE)
        assert advice.latency_s > 0.0


class TestOneLedgerStore:
    """Advisors share the sweep engine's recipe-bound ledger store."""

    def test_sweep_cache_serves_every_machine(self, tmp_path, monkeypatch):
        path = tmp_path / "counts.json"
        config = StudyConfig(name="t", algorithms=("contour",), sizes=(SIZE,))
        SweepEngine(workers=0, n_cycles=2, profile_cache=ProfileCache(path)).run(config)

        def refuse(*args, **kwargs):
            raise AssertionError("the advisor executed a kernel")

        monkeypatch.setattr(advisor_module, "run_algorithm_ledger", refuse)
        for machine in sorted(ALL_PRESETS):
            adv = api.advisor(machine=machine, cache=path, n_cycles=2)
            assert adv.advise("contour", SIZE).cache_hit, machine

    def test_second_machine_hits_and_prices_on_its_own_spec(self):
        store = ProfileCache(None)
        broadwell = PowerAdvisor(cache=store, n_cycles=2)
        assert not broadwell.advise("threshold", SIZE, cap_w=60.0).cache_hit
        skylake = PowerAdvisor(SKYLAKE_LIKE, cache=store, n_cycles=2)
        advice = skylake.advise("threshold", SIZE, cap_w=60.0)
        assert advice.cache_hit
        expected = BatchRepricer(SKYLAKE_LIKE, n_cycles=2).reprice(
            "threshold", SIZE, store.get("threshold", SIZE), POWER_CAPS_W
        )
        assert advice.point == expected[POWER_CAPS_W.index(60.0)]

    def test_shared_advisors_share_one_store_across_machines(self, tmp_path):
        path = tmp_path / "counts.json"
        first = api.advise(algorithm="slice", size=SIZE, machine="broadwell", cache=path)
        second = api.advise(algorithm="slice", size=SIZE, machine="skylake", cache=path)
        assert not first.cache_hit
        assert second.cache_hit

    def test_store_of_another_recipe_is_refused(self, tmp_path):
        path = tmp_path / "counts.json"
        ProfileCache(path).put("threshold", SIZE, {"flops": 1.0})
        doc = json.loads(path.read_text())
        doc["recipe"]["seed"] = 8
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"'seed': 8\}, not the study's \{'dataset_kind': 'blobs', 'seed': 7"):
            api.advisor(cache=path)
