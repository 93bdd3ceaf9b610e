"""REPRO_MAX_SIZE capping, the engine's JSON ledger cache, emitters."""

import pytest

from repro import api
from repro.core import StudyConfig, SweepEngine
from repro.core.profiles import ProfileCache, profile_from_ledger, run_algorithm_ledger
from repro.core.study import effective_sizes
from repro.harness import result_to_csv, series_to_csv
from repro.core.report import FigureSeries


@pytest.fixture()
def small_result():
    cfg = StudyConfig(name="t", algorithms=("threshold",), sizes=(16,))
    return SweepEngine(n_cycles=2, workers=0).run(cfg)


class TestEffectiveSizes:
    def test_no_cap(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_SIZE", raising=False)
        assert effective_sizes((32, 64)) == (32, 64)

    def test_capped(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_SIZE", "64")
        assert effective_sizes((32, 64, 128, 256)) == (32, 64)

    def test_cap_below_all_substitutes_cap(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_SIZE", "8")
        assert effective_sizes((32, 64)) == (8,)

    def test_zero_and_blank_disable_cap(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_SIZE", "0")
        assert effective_sizes((32, 64)) == (32, 64)
        monkeypatch.setenv("REPRO_MAX_SIZE", "  ")
        assert effective_sizes((32, 64)) == (32, 64)

    @pytest.mark.parametrize("bad", ["64.5", "big", "1e3"])
    def test_non_integer_raises_clear_error(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_MAX_SIZE", bad)
        with pytest.raises(ValueError, match="REPRO_MAX_SIZE must be a whole number"):
            effective_sizes((32, 64))


class TestHarnessCache:
    def test_profile_persisted_and_reloaded(self, tmp_path, study_profile):
        cache = tmp_path / "counts.json"
        ledger = run_algorithm_ledger("threshold", 12)
        ProfileCache(cache).put("threshold", 12, ledger)
        assert cache.exists()

        reloaded = ProfileCache(cache).get("threshold", 12)  # served from the file
        assert reloaded == ledger
        p2 = profile_from_ledger("threshold", 12, reloaded, n_cycles=2)
        p1 = study_profile("threshold", 12, n_cycles=2)
        assert p2.total_instructions == pytest.approx(p1.total_instructions)

    def test_cached_profile_matches_fresh(self, tmp_path, study_profile):
        cache = tmp_path / "counts.json"
        cfg = StudyConfig(name="s", algorithms=("clip",), sizes=(12,))
        api.sweep_engine(workers=0, cache=cache, n_cycles=3).run(cfg)
        fresh = study_profile("clip", 12, n_cycles=3)
        ledger = api.sweep_engine(workers=0, cache=cache, n_cycles=3).profile_cache.get("clip", 12)
        cached = profile_from_ledger("clip", 12, ledger, n_cycles=3)
        assert [s.name for s in cached] == [s.name for s in fresh]
        # Ledger reconstruction is the single pricing path: exact, not approx.
        assert cached.total_instructions == fresh.total_instructions

    def test_no_cache_path(self):
        e = api.sweep_engine(workers=0, cache=None, n_cycles=1)
        assert e.profile_cache.path is None
        e.run(StudyConfig(name="s", algorithms=("threshold",), sizes=(12,)))
        assert e.stats.profile_jobs_run == 1
        assert e.profile_cache.get("threshold", 12) is not None

    def test_sweep_uses_cache(self, tmp_path):
        cache = tmp_path / "c.json"
        cfg = StudyConfig(name="s", algorithms=("threshold",), sizes=(12,))
        res = api.sweep_engine(workers=0, cache=cache, n_cycles=1).run(cfg)
        assert len(res.points) == 9
        again = api.sweep_engine(workers=0, cache=cache, n_cycles=1)
        again.run(cfg)
        assert again.stats.profile_jobs_cached == 1

    def test_cache_rejects_foreign_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"format": "something-else", "entries": {}}')
        with pytest.raises(ValueError, match="not a profile cache"):
            ProfileCache(p)


class TestEmitters:
    def test_csv_roundtrip_fields(self, small_result, tmp_path):
        text = result_to_csv(small_result, tmp_path / "r.csv")
        lines = text.strip().splitlines()
        assert lines[0].startswith("algorithm,size,cap_w")
        assert len(lines) == 1 + len(small_result.points)
        assert (tmp_path / "r.csv").read_text() == text

    def test_series_csv(self, tmp_path):
        s = {"a": FigureSeries("a", (1.0, 2.0), (3.0, 4.0))}
        text = series_to_csv(s, tmp_path / "s.csv")
        assert "label,x,y" in text
        assert "a,1,3" in text
