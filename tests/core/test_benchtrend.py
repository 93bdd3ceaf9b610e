"""Benchmark trajectory: baseline backfill, trend rows, floor gate, CLI.

PR 8 closed the trajectory's baseline gaps — every recorded entry now
carries a ``baseline_s`` (explicit > previously pinned > previous
measurement > itself) so ``repro bench --trend`` and the CI floor gate
always have a reference to regress against.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.benchtrack import (
    SPEEDUP_FLOORS,
    BenchTracker,
    check_floors,
    format_trend,
    trend_rows,
)


class TestBaselineBackfill:
    def test_fresh_key_anchors_to_itself(self, tmp_path):
        entry = BenchTracker(tmp_path / "b.json").record("contour", 64, 0.5)
        assert entry["baseline_s"] == 0.5
        assert entry["speedup_vs_baseline"] == 1.0

    def test_rerecord_anchors_to_previous_measurement(self, tmp_path):
        """A key first recorded without a baseline regresses against its
        own history once re-measured — the gap the old format left."""
        tracker = BenchTracker(tmp_path / "b.json")
        tracker.record("contour", 64, 0.5)
        entry = tracker.record("contour", 64, 0.25)
        assert entry["baseline_s"] == 0.5
        assert entry["speedup_vs_baseline"] == 2.0

    def test_pinned_baseline_survives_backfill_chain(self, tmp_path):
        tracker = BenchTracker(tmp_path / "b.json")
        tracker.record("clip", 64, 2.0, baseline_s=4.0)
        tracker.record("clip", 64, 1.0)
        entry = tracker.record("clip", 64, 0.5)
        assert entry["baseline_s"] == 4.0
        assert entry["speedup_vs_baseline"] == 8.0

    def test_committed_trajectory_has_no_gaps(self):
        """The repo-level BENCH_kernels.json every PR regresses against."""
        from pathlib import Path

        repo_root = Path(__file__).resolve().parents[2]
        tracker = BenchTracker(repo_root / "BENCH_kernels.json")
        assert len(tracker) > 0
        for key, entry in tracker.entries.items():
            assert "baseline_s" in entry, f"{key} has no baseline"
            assert "speedup_vs_baseline" in entry, f"{key} has no speedup"


class TestTrend:
    @pytest.fixture
    def tracker(self, tmp_path):
        t = BenchTracker(tmp_path / "b.json")
        t.record("contour", 128, 1.0, baseline_s=4.0)  # 4.0x >= 3.0 floor
        t.record("clip", 128, 1.0, baseline_s=1.5)  # 1.5x < 2.0 floor
        t.record("volume", 32, 0.2, baseline_s=0.2)  # no floor
        return t

    def test_rows_sorted_and_flagged(self, tracker):
        rows = trend_rows(tracker)
        assert [(r["kernel"], r["size"]) for r in rows] == [
            ("clip", 128),
            ("contour", 128),
            ("volume", 32),
        ]
        by_kernel = {r["kernel"]: r for r in rows}
        assert by_kernel["contour"]["ok"] and by_kernel["contour"]["floor"] == 3.0
        assert not by_kernel["clip"]["ok"]
        assert by_kernel["volume"]["ok"] and by_kernel["volume"]["floor"] is None

    def test_format_trend_marks_failures(self, tracker):
        table = format_trend(trend_rows(tracker))
        assert "<< BELOW FLOOR" in table
        assert table.count("<< BELOW FLOOR") == 1
        assert "contour" in table and "128^3" in table

    def test_check_floors_reports_only_failures(self, tracker):
        failures = check_floors(tracker)
        assert len(failures) == 1
        assert "clip@128^3" in failures[0] and "2.0x floor" in failures[0]

    def test_table3_scale_floors_pinned(self):
        for kernel in ("contour", "clip", "isovolume"):
            assert SPEEDUP_FLOORS[(kernel, 256)] >= 2.0


def _load_bench_kernels():
    """``benchmarks/bench_kernels.py``, which is a script, not a package."""
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchKernelsSuite:
    def test_times_every_requested_size(self, tmp_path):
        """Volume rendering is timed at both sizes, not only the smallest."""
        bench = _load_bench_kernels()
        tracker = bench.run_suite([8, 12], kernels=["volume"], repeats=1, path=tmp_path / "b.json")
        assert sorted(tracker.entries) == ["volume/12", "volume/8"]
        assert len(BenchTracker(tmp_path / "b.json")) == 2


class TestBenchCli:
    @pytest.fixture
    def bench_path(self, tmp_path):
        t = BenchTracker(tmp_path / "b.json")
        t.record("contour", 128, 1.0, baseline_s=4.0)
        t.record("clip", 128, 1.0, baseline_s=1.5)
        t.save()
        return tmp_path / "b.json"

    def test_trend_prints_table(self, capsys, bench_path):
        assert main(["bench", "--path", str(bench_path)]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "contour" in out

    def test_check_fails_below_floor(self, capsys, bench_path):
        assert main(["bench", "--path", str(bench_path), "--check"]) == 1
        assert "REGRESSION: clip@128^3" in capsys.readouterr().err

    def test_check_passes_clean_file(self, capsys, tmp_path):
        t = BenchTracker(tmp_path / "clean.json")
        t.record("contour", 128, 1.0, baseline_s=4.0)
        t.save()
        assert main(["bench", "--path", str(tmp_path / "clean.json"), "--check"]) == 0

    def test_missing_file_is_an_error(self, capsys, tmp_path):
        assert main(["bench", "--path", str(tmp_path / "nope.json")]) == 2

    def test_foreign_file_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"format": "other"}))
        assert main(["bench", "--path", str(path)]) == 2
