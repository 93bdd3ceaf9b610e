"""Result store format and RunPoint serialization."""

import json
import re

import pytest

from repro.core import ResultStore, StudyConfig, StudyResult, SweepEngine
from repro.core.runner import RunPoint
from repro.machine.simulator import SegmentRecord


@pytest.fixture(scope="module")
def result() -> StudyResult:
    cfg = StudyConfig(name="t", algorithms=("threshold",), sizes=(12,))
    return SweepEngine(n_cycles=2, workers=0).run(cfg)


class TestRunPointSerialization:
    def test_dict_roundtrip_bitwise(self, result):
        for p in result.points:
            q = RunPoint.from_dict(p.to_dict())
            assert q == p  # frozen dataclass: field-by-field equality

    def test_jsonl_roundtrip_bitwise(self, result):
        for p in result.points:
            assert RunPoint.from_jsonl(p.to_jsonl()) == p

    def test_key(self, result):
        p = result.points[0]
        assert p.key == (p.algorithm, p.size, p.cap_w)


class TestResultStore:
    def test_append_and_reload(self, result, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.ensure_compatible("fp", {"config_name": "t"})
        for p in result.points:
            store.append(p)

        again = ResultStore(path)
        assert again.fingerprint == "fp"
        assert len(again) == len(result.points)
        assert again.load_result().points == result.points
        assert result.points[0].key in again

    def test_append_without_fingerprint_refused(self, result, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        with pytest.raises(RuntimeError, match="fingerprint"):
            store.append(result.points[0])

    def test_foreign_file_rejected(self, tmp_path):
        p = tmp_path / "s.jsonl"
        p.write_text('{"format": "other"}\n')
        with pytest.raises(ValueError, match="not a sweep store"):
            ResultStore(p)

    def test_duplicate_key_keeps_latest(self, result, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.ensure_compatible("fp")
        store.append(result.points[0])
        store.append(result.points[0])
        assert len(store) == 1

    def test_version_1_store_is_rejected_on_read_and_append(self, result, tmp_path):
        path = tmp_path / "old.jsonl"
        header = {"format": ResultStore.FORMAT, "version": 1, "fingerprint": "fp", "meta": {}}
        path.write_text(
            json.dumps(header) + "\n" + json.dumps(result.points[0].to_dict()) + "\n"
        )
        before = path.read_text()
        names_the_file = f"{re.escape(str(path))} has sweep store version 1"
        with pytest.raises(ValueError, match=names_the_file):
            ResultStore(path)
        with pytest.raises(ValueError, match=names_the_file):
            SweepEngine(n_cycles=2, workers=0, store=path).run(
                StudyConfig(name="t", algorithms=("threshold",), sizes=(12,))
            )
        assert path.read_text() == before  # never mixed

    def test_remove_keeps_segments_and_quarantine_records(self, result, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.ensure_compatible("fp")
        segments = [SegmentRecord("classify", 2.1, 1.0, 0.25, 80.0, 20.0, 1e9, 1e7, 1e5, 0.1, True)]
        a, b, c = result.points[:3]
        store.append(a, segments=segments)
        store.quarantine(b, [{"code": "power-over-cap", "message": "over"}])
        store.append(c, segments=segments)
        lines = path.read_text().splitlines()
        assert store.remove([c.key, ("absent", 1, 1.0)]) == 1
        assert path.read_text().splitlines() == lines[:3]  # survivors byte for byte
        again = ResultStore(path)
        assert list(again.points) == [a.key]
        assert [p.key for p, _ in again.quarantined()] == [b.key]
        assert {r["cap_w"] for r in again.samples()} == {a.cap_w}
