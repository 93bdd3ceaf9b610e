"""Invariant guardrails: every violation code fires, clean data never does."""

import re

import pytest

from repro.cli import main
from repro.core import (
    PointValidator,
    ResultStore,
    StudyConfig,
    StudyResult,
    SweepEngine,
    validate_store,
)
from repro.core.profiles import ProfileCache, run_algorithm_ledger
from repro.core.runner import RunPoint
from repro.core.study import ALGORITHM_NAMES
from repro.machine.presets import ALL_PRESETS

CFG = StudyConfig(name="t", algorithms=("threshold",), sizes=(12,))

#: The cells each preset quarantines over the paper's 40-120 W grid at
#: 12^3: caps below the preset's RAPL floor (50 W, 120 W) whose clamped
#: runs draw more than the cap.
BELOW_FLOOR = {
    "skylake": {alg: (40.0,) for alg in ALGORITHM_NAMES},
    "manycore": {
        **{alg: (60.0, 50.0, 40.0) for alg in ("contour", "threshold", "clip", "isovolume", "slice")},
        "advection": (90.0, 80.0, 70.0, 60.0, 50.0, 40.0),
        "raytrace": (80.0, 70.0, 60.0, 50.0, 40.0),
        "volume": (90.0, 80.0, 70.0, 60.0, 50.0, 40.0),
    },
}


@pytest.fixture(scope="module")
def clean():
    return SweepEngine(n_cycles=2, workers=0).run(CFG)


def mutate(point: RunPoint, **changes) -> RunPoint:
    d = point.to_dict()
    d.update(changes)
    return RunPoint.from_dict(d)


def swap(result: StudyResult, idx: int, **changes):
    """A copy of ``result`` with one point mutated; returns (result, key)."""
    points = list(result.points)
    points[idx] = mutate(points[idx], **changes)
    return StudyResult(config_name=result.config_name, points=points), points[idx].key


def codes_at(report, key):
    return {v.code for v in report.violations.get(key, [])}


class TestCleanData:
    def test_clean_sweep_validates(self, clean):
        report = PointValidator().check_result(clean)
        assert report.ok
        assert report.n_points == len(clean.points)
        assert "all invariants hold" in report.render()

    def test_empty_group_is_fine(self):
        assert PointValidator().check_group([]) == {}


class TestPointInvariants:
    def test_power_over_cap(self, clean):
        bad, key = swap(clean, 4, power_w=clean.points[4].cap_w * 2)
        report = PointValidator().check_result(bad)
        assert codes_at(report, key) == {"power-over-cap"}

    def test_non_finite_short_circuits(self, clean):
        bad, key = swap(clean, 4, ipc=float("nan"), power_w=1e9)
        report = PointValidator().check_result(bad)
        assert codes_at(report, key) == {"non-finite"}  # range checks skipped

    def test_non_positive(self, clean):
        bad, key = swap(clean, 4, energy_j=-1.0)
        assert "non-positive" in codes_at(PointValidator().check_result(bad), key)

    def test_freq_out_of_range(self, clean):
        bad, key = swap(clean, 4, freq_ghz=10.0)
        assert "freq-out-of-range" in codes_at(PointValidator().check_result(bad), key)

    def test_ipc_out_of_range(self, clean):
        bad, key = swap(clean, 4, ipc=50.0)
        assert "ipc-out-of-range" in codes_at(PointValidator().check_result(bad), key)

    def test_llc_rate_out_of_range(self, clean):
        bad, key = swap(clean, 4, llc_miss_rate=1.5)
        assert "llc-rate-out-of-range" in codes_at(PointValidator().check_result(bad), key)


class TestCapBelowFloor:
    """A cap below the RAPL floor is clamped up to the floor: its point
    is quarantined with its own reason, not as a power defect."""

    @pytest.fixture(scope="class")
    def ledgers(self):
        cache = ProfileCache(None)
        for alg in ALGORITHM_NAMES:
            cache.put(alg, 12, run_algorithm_ledger(alg, 12))
        return cache

    @pytest.mark.parametrize("preset", sorted(BELOW_FLOOR))
    def test_presets_quarantine_below_floor_cells_as_such(self, preset, ledgers, tmp_path):
        spec = ALL_PRESETS[preset]
        store = tmp_path / "s.jsonl"
        config = StudyConfig(name="floor", algorithms=ALGORITHM_NAMES, sizes=(12,))
        SweepEngine(spec, n_cycles=2, workers=0, store=store, profile_cache=ledgers).run(config)
        quarantined = ResultStore(store).quarantined()
        expected = {(alg, 12, cap) for alg, caps in BELOW_FLOOR[preset].items() for cap in caps}
        assert {p.key for p, _ in quarantined} == expected
        assert len(quarantined) == len(expected)
        for point, reasons in quarantined:
            assert [r["code"] for r in reasons] == ["cap-below-floor"]
            message = reasons[0]["message"]
            assert f"cap {point.cap_w:g}W" in message
            assert f"RAPL floor {spec.rapl_floor_watts:g}W" in message

    def test_power_past_the_floor_is_still_over_cap(self, clean):
        # Broadwell's floor is 40 W: a 30 W cap may draw up to the
        # floor's tolerance, and no further.
        validator = PointValidator()
        point = clean.points[4]
        at_floor = mutate(point, cap_w=30.0, power_w=40.5)
        past_floor = mutate(point, cap_w=30.0, power_w=45.0)
        assert [v.code for v in validator.check_point(at_floor)] == ["cap-below-floor"]
        assert [v.code for v in validator.check_point(past_floor)] == ["power-over-cap"]


class TestGroupInvariants:
    def test_runtime_not_monotone_blames_the_fast_point(self, clean):
        # A mid-group point claiming to run 1000x faster under a lower cap.
        bad, key = swap(clean, 4, time_s=clean.points[4].time_s * 1e-3)
        report = PointValidator().check_result(bad)
        assert "runtime-not-monotone" in codes_at(report, key)
        others = set(report.violations) - {key}
        assert not others  # the clean neighbours are never blamed

    def test_corrupt_baseline_blamed_by_majority(self, clean):
        # points[0] is the highest (default) cap — the ratio baseline.
        assert clean.points[0].cap_w == max(p.cap_w for p in clean.points)
        bad, key = swap(clean, 0, time_s=clean.points[0].time_s * 1e-3)
        report = PointValidator().check_result(bad)
        assert "baseline-inconsistent" in codes_at(report, key)

    def test_counts_by_code(self, clean):
        bad, _ = swap(clean, 4, time_s=clean.points[4].time_s * 1e-3)
        counts = PointValidator().check_result(bad).counts_by_code()
        assert counts["runtime-not-monotone"] == 1


class TestValidateStore:
    def _damaged_store(self, tmp_path):
        path = tmp_path / "s.jsonl"
        SweepEngine(n_cycles=2, workers=0, store=path).run(CFG)
        store = ResultStore(path)
        victim = list(store.points.values())[4]
        broken = mutate(victim, power_w=victim.cap_w * 3)
        store.remove([victim.key])
        store.append(broken)
        return path, victim

    def test_missing_store_is_an_error_not_an_empty_store(self, tmp_path, capsys):
        path = tmp_path / "no" / "such" / "store.jsonl"
        with pytest.raises(FileNotFoundError, match=f"no sweep store at {re.escape(str(path))}$"):
            validate_store(path)
        assert main(["doctor", str(path)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"doctor: no sweep store at {path}\n")
        assert not path.exists()

    def test_clean_store_ok(self, tmp_path):
        path = tmp_path / "s.jsonl"
        SweepEngine(n_cycles=2, workers=0, store=path).run(CFG)
        report = validate_store(path)
        assert report.ok and report.quarantined == 0
        assert str(path) in report.render()

    def test_damage_detected_read_only(self, tmp_path):
        path, victim = self._damaged_store(tmp_path)
        report = validate_store(path)
        assert not report.ok
        assert "power-over-cap" in report.counts_by_code()
        assert len(ResultStore(path)) == len(CFG.caps_w)  # untouched

    def test_quarantine_moves_violators_to_quarantine_records(self, tmp_path):
        path, victim = self._damaged_store(tmp_path)
        report = validate_store(path, quarantine=True)
        assert report.quarantined == 1
        store = ResultStore(path)
        assert victim.key not in store
        [(qpoint, reasons)] = store.quarantined()
        assert qpoint.key == victim.key
        assert reasons[0]["code"] == "power-over-cap"
        assert validate_store(path).ok  # the stored points are clean again

    def test_failed_quarantine_rewrite_leaves_the_store_unchanged(self, tmp_path, monkeypatch):
        """Quarantining is one atomic rewrite: when it fails, the violator
        is still stored and not quarantined, never both."""
        import repro.obs.durable as durable

        path, victim = self._damaged_store(tmp_path)
        before = path.read_bytes()

        def refuse(path, text):
            raise OSError("disk full")

        with monkeypatch.context() as m:
            m.setattr(durable, "atomic_write_text", refuse)
            with pytest.raises(OSError, match="disk full"):
                validate_store(path, quarantine=True)
        assert path.read_bytes() == before
        store = ResultStore(path)
        assert victim.key in store and store.quarantined() == []

        assert validate_store(path, quarantine=True).quarantined == 1
        store = ResultStore(path)
        assert victim.key not in store
        assert [p.key for p, _ in store.quarantined()] == [victim.key]
