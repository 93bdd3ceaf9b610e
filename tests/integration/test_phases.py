"""Integration: the study phases through one engine and the facade's
phase names, at smoke scale (REPRO_MAX_SIZE), exercising the exact code
path the CLI table commands use — including the ledger cache round trip."""

import pytest

from repro import api
from repro.core import SweepEngine
from repro.harness import result_to_csv


@pytest.fixture(scope="module")
def engine(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache") / "counts.json"
    return SweepEngine(workers=0, profile_cache=cache, n_cycles=3)


@pytest.fixture(autouse=True)
def smoke_scale(monkeypatch):
    monkeypatch.setenv("REPRO_MAX_SIZE", "16")


def run(engine, name):
    return engine.run(api.resolve_config(name))


class TestPhases:
    def test_phase1_shape(self, engine):
        r = run(engine, "table1")
        assert len(r.points) == 9
        assert r.algorithms == ["contour"]

    def test_phase2_shape(self, engine):
        r = run(engine, "table2")
        assert len(r.points) == 8 * 9
        assert len(r.algorithms) == 8

    def test_phase3_uses_capped_sizes(self, engine):
        r = run(engine, "phase3")
        assert r.sizes == [16]
        assert len(r.points) == 8 * 9

    def test_table3_substitutes_cap(self, engine):
        r = run(engine, "table3")
        assert r.sizes == [16]

    def test_results_are_cache_stable(self, engine):
        """A second engine over the same cache reproduces the sweep."""
        a = run(engine, "table1")
        fresh = SweepEngine(workers=0, profile_cache=engine.profile_cache.path, n_cycles=3)
        b = run(fresh, "table1")
        assert fresh.stats.profile_jobs_run == 0
        for pa, pb in zip(a.points, b.points):
            assert pa.time_s == pytest.approx(pb.time_s, rel=1e-12)
            assert pa.power_w == pytest.approx(pb.power_w, rel=1e-12)

    def test_emitters_accept_phase_output(self, engine):
        r = run(engine, "table2")
        csv = result_to_csv(r)
        assert csv.count("\n") == 1 + len(r.points)
