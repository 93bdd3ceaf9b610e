"""Tests for atomic whole-file writes (repro.obs.durable) and the bench tracker."""

from __future__ import annotations

import json
import os

import pytest

from repro.obs.durable import atomic_write_json, atomic_write_text
from repro.core.benchtrack import BenchTracker, time_kernel
from repro.core.profiles import ProfileCache


class TestAtomicWrite:
    def test_creates_and_replaces(self, tmp_path):
        target = tmp_path / "doc.json"
        atomic_write_text(target, "one")
        assert target.read_text() == "one"
        atomic_write_text(target, "two")
        assert target.read_text() == "two"

    def test_creates_parent_dirs(self, tmp_path):
        target = tmp_path / "a" / "b" / "doc.txt"
        atomic_write_text(target, "x")
        assert target.read_text() == "x"

    def test_no_temp_leftovers(self, tmp_path):
        target = tmp_path / "doc.json"
        atomic_write_json(target, {"k": 1})
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_failed_replace_leaves_original_intact(self, tmp_path, monkeypatch):
        """A crash mid-save must never truncate the existing document."""
        target = tmp_path / "doc.json"
        atomic_write_text(target, "original")

        def boom(src, dst):
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write_text(target, "partial new content")
        monkeypatch.undo()
        assert target.read_text() == "original"
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_json_sorted_round_trip(self, tmp_path):
        target = tmp_path / "doc.json"
        atomic_write_json(target, {"b": 2, "a": [1.5, None]})
        assert json.loads(target.read_text()) == {"a": [1.5, None], "b": 2}
        assert target.read_text().index('"a"') < target.read_text().index('"b"')


class TestProfileCacheAtomicSave:
    def test_interrupted_save_keeps_previous_entries(self, tmp_path, monkeypatch):
        path = tmp_path / "profiles.json"
        cache = ProfileCache(path)
        cache.put("contour", 32, {"cells_classified": 1.0})

        def boom(src, dst):
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            cache.put("slice", 32, {"planes": 1.0})
        monkeypatch.undo()

        reloaded = ProfileCache(path)
        assert reloaded.get("contour", 32) == {"cells_classified": 1.0}
        assert reloaded.get("slice", 32) is None
        assert [p.name for p in tmp_path.iterdir()] == ["profiles.json"]


class TestTimeKernel:
    def test_reports_min_and_mean(self):
        calls = []
        timing = time_kernel(lambda: calls.append(1), repeats=3, warmup=2)
        assert len(calls) == 5
        assert timing["repeats"] == 3.0
        assert 0.0 <= timing["best_s"] <= timing["mean_s"]

    def test_rejects_nonpositive_repeats(self):
        with pytest.raises(ValueError):
            time_kernel(lambda: None, repeats=0)


class TestBenchTracker:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "bench.json"
        tracker = BenchTracker(path)
        tracker.record("contour", 128, 1.25, baseline_s=5.0)
        tracker.save()
        reloaded = BenchTracker(path)
        entry = reloaded.get("contour", 128)
        assert entry["seconds"] == 1.25
        assert entry["speedup_vs_baseline"] == 4.0
        assert len(reloaded) == 1

    def test_rerecord_preserves_baseline(self, tmp_path):
        tracker = BenchTracker(tmp_path / "bench.json")
        tracker.record("clip", 128, 2.0, baseline_s=4.0)
        entry = tracker.record("clip", 128, 1.0)
        assert entry["baseline_s"] == 4.0
        assert entry["speedup_vs_baseline"] == 4.0

    def test_explicit_baseline_overrides(self, tmp_path):
        tracker = BenchTracker(tmp_path / "bench.json")
        tracker.record("clip", 128, 2.0, baseline_s=4.0)
        entry = tracker.record("clip", 128, 2.0, baseline_s=8.0)
        assert entry["baseline_s"] == 8.0

    def test_meta_kwargs_stored(self, tmp_path):
        tracker = BenchTracker(tmp_path / "bench.json")
        entry = tracker.record("volume", 32, 0.5, mean_s=0.6, repeats=3)
        assert entry["mean_s"] == 0.6
        assert entry["repeats"] == 3

    def test_rejects_foreign_document(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="not a kernel benchmark file"):
            BenchTracker(path)

    def test_rejects_newer_version(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"format": "repro-bench-kernels", "version": 99}))
        with pytest.raises(ValueError, match="newer"):
            BenchTracker(path)
