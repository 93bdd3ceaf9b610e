"""The ledger store's benchmark-facing names and bitwise batch repricing."""

import dataclasses

import pytest

from repro import api
from repro.core.pricing import BatchRepricer, LedgerCache
from repro.core.profiles import ProfileCache, profile_from_ledger, run_algorithm_ledger
from repro.core.runner import make_run_point
from repro.core.study import POWER_CAPS_W
from repro.machine.simulator import Processor
from repro.machine.spec import BROADWELL_E5_2695V4

SIZE = 16


@pytest.fixture(scope="module")
def ledgers():
    """Real op-count ledgers for a few algorithms at a small size."""
    return {
        alg: run_algorithm_ledger(alg, SIZE)
        for alg in ("contour", "threshold", "volume")
    }


def engine_points(spec, algorithm, ledger, caps, n_cycles=5):
    """The engine's per-point path: Processor.run + make_run_point."""
    processor = Processor(spec)
    profile = profile_from_ledger(algorithm, SIZE, ledger, n_cycles=n_cycles)
    default_cap = max(caps)
    base = processor.run(profile, default_cap)
    return [
        make_run_point(
            algorithm, SIZE, cap,
            base if cap == default_cap else processor.run(profile, cap),
            base, default_cap,
        )
        for cap in caps
    ]


class TestLedgerCache:
    """``LedgerCache`` is the one store under the name perfbench uses."""

    def test_round_trip_and_persistence(self, tmp_path, ledgers):
        assert LedgerCache is ProfileCache
        path = tmp_path / "cache.json"
        cache = LedgerCache(path)
        cache.put("contour", SIZE, ledgers["contour"])
        assert ("contour", SIZE) in cache
        reloaded = LedgerCache(path)
        assert reloaded.get("contour", SIZE) == ledgers["contour"]
        assert len(reloaded) == 1

    def test_ingest_profile_cache(self, tmp_path, ledgers):
        # The advise workload's set-up call shape.
        pcache = ProfileCache(tmp_path / "profiles.json")
        pcache.put("threshold", SIZE, ledgers["threshold"])
        cache = LedgerCache(None)
        adv = api.advisor(cache=cache)
        n = cache.ingest_profile_cache(pcache, dataset=adv.dataset, machine=adv.machine)
        assert n == 1
        assert cache.ingest_profile_cache(pcache, dataset=adv.dataset, machine=adv.machine) == 0
        assert cache.get("threshold", SIZE) == ledgers["threshold"]
        assert adv.advise("threshold", SIZE).cache_hit
        other = ProfileCache(None)
        other.bind("blobs", 8)
        with pytest.raises(ValueError, match="seed=8"):
            cache.ingest_profile_cache(other, dataset=adv.dataset, machine=adv.machine)


class TestBitwiseRepricing:
    def test_identical_to_engine_path(self, ledgers):
        repricer = BatchRepricer(n_cycles=5)
        caps = list(POWER_CAPS_W)
        for alg, ledger in ledgers.items():
            expected = engine_points(BROADWELL_E5_2695V4, alg, ledger, caps)
            got = repricer.reprice(alg, SIZE, ledger, caps)
            assert got == expected  # frozen float dataclasses: bitwise

    def test_identical_on_duty_cycle_path(self, ledgers):
        # A 5 W floor admits caps the P-state range cannot satisfy, so
        # the controller falls back to duty-cycle bisection (and below
        # ~22.5 W cannot meet the cap even at MIN_DUTY).
        spec = dataclasses.replace(BROADWELL_E5_2695V4, rapl_floor_watts=5.0)
        caps = [5.0, 15.0, 20.0, 22.5, 23.5, 25.0, 30.0, 120.0]
        repricer = BatchRepricer(spec, n_cycles=5)
        ledger = ledgers["contour"]

        # The scenario must actually exercise duty cycling.
        from repro.machine.exec_model import ExecutionModel
        from repro.machine.rapl import RaplController

        profile = profile_from_ledger("contour", SIZE, ledger, n_cycles=5)
        ev = ExecutionModel(spec).evaluate(next(iter(profile)))
        op = RaplController(spec).operating_point(ev, 23.5)
        assert op.duty < 1.0

        expected = engine_points(spec, "contour", ledger, caps)
        got = repricer.reprice("contour", SIZE, ledger, caps)
        assert got == expected
        # Below ~22.5 W even MIN_DUTY overshoots: delivered power > cap.
        assert any(p.power_w > p.cap_w for p in got)

    def test_random_cap_grids_property(self, ledgers):
        import random

        rng = random.Random(42)
        repricer = BatchRepricer(n_cycles=5)
        for trial in range(5):
            caps = sorted(
                {round(rng.uniform(40.0, 120.0), 2) for _ in range(rng.randint(2, 7))}
            )
            alg = rng.choice(list(ledgers))
            expected = engine_points(BROADWELL_E5_2695V4, alg, ledgers[alg], caps)
            got = repricer.reprice(alg, SIZE, ledgers[alg], caps)
            assert got == expected, f"trial {trial}: caps={caps}"

    def test_table_cache_reused_and_bounded(self, ledgers):
        repricer = BatchRepricer(n_cycles=5, max_tables=2)
        caps = [40.0, 120.0]
        for alg in ledgers:
            repricer.reprice(alg, SIZE, ledgers[alg], caps)
        assert repricer.cached_tables == 2  # LRU evicted the oldest

    def test_rejects_bad_caps(self, ledgers):
        repricer = BatchRepricer(n_cycles=5)
        with pytest.raises(ValueError):
            repricer.reprice("contour", SIZE, ledgers["contour"], [float("nan")])
        with pytest.raises(ValueError):
            repricer.reprice("contour", SIZE, ledgers["contour"], [-10.0])
