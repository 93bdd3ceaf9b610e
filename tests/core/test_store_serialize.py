"""Result store format and RunPoint serialization."""

import pytest

from repro.core import ResultStore, StudyConfig, StudyResult, SweepEngine
from repro.core.runner import RunPoint


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
