"""The repro.api facade: run, persist, reload, classify."""

import json
import re

import pytest

import repro
from repro import api
from repro.api import StudyRequest
from repro.core import ResultStore, StudyConfig, SweepEngine

SMALL = StudyConfig(name="small", algorithms=("threshold", "contour"), sizes=(12,))


class TestRunStudy:
    def test_explicit_config(self):
        result = api.run_study(StudyRequest(SMALL, n_cycles=2))
        assert result.config_name == "small"
        assert len(result.points) == SMALL.n_configurations

    def test_phase_name_respects_max_size(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_SIZE", "12")
        result = api.run_study(StudyRequest("phase1", n_cycles=1))
        assert result.sizes == [12]
        assert len(result.points) == 9

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError, match="unknown study phase"):
            api.run_study("phase9")

    def test_cache_refuses_another_dataset_recipe(self, tmp_path):
        """Ledgers cached at seed 8 must not price the study (seed 7)."""
        one = StudyConfig(name="one", algorithms=("threshold",), sizes=(12,))
        cache = tmp_path / "counts.json"
        api.run_study(StudyRequest(one, n_cycles=2, cache=cache))
        doc = json.loads(cache.read_text())
        doc["recipe"]["seed"] = 8
        cache.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"{re.escape(str(cache))} holds ledgers .*'seed': 8"):
            api.run_study(StudyRequest(one, n_cycles=2, cache=cache))

    def test_workers_do_not_change_results(self):
        a = api.run_study(StudyRequest(SMALL, n_cycles=2, workers=0))
        b = api.run_study(StudyRequest(SMALL, n_cycles=2, workers=2))
        assert [p.to_dict() for p in a.points] == [p.to_dict() for p in b.points]

    def test_trace_and_samples_passthrough(self, tmp_path):
        from repro.obs.trace import read_trace

        store = tmp_path / "store.jsonl"
        trace = tmp_path / "run.trace.jsonl"
        result = api.run_study(
            StudyRequest(SMALL, n_cycles=2, store=store, trace=str(trace), samples=True)
        )
        _, records = read_trace(trace)
        assert {"sweep", "kernel"} <= {r["name"] for r in records if r["kind"] == "span"}
        samples = ResultStore(store).samples()
        assert {(r["algorithm"], r["size"], r["cap_w"]) for r in samples} == {
            p.key for p in result.points
        }


class TestRoundTrip:
    def test_jsonl_roundtrip_preserves_classification(self, tmp_path):
        path = tmp_path / "small.jsonl"
        result = api.run_study(StudyRequest(SMALL, n_cycles=2, store=path))

        loaded = api.load_result(path)
        assert loaded.config_name == "small"
        assert loaded.points == result.points

        before = api.classify_study(result)
        after = api.classify_study(loaded)
        assert before == after
        assert set(before) == {"threshold", "contour"}

    def test_load_result_reads_store_files(self, tmp_path):
        store = tmp_path / "store.jsonl"
        result = api.run_study(StudyRequest(SMALL, n_cycles=2, store=store))
        loaded = api.load_result(store)
        assert sorted(p.key for p in loaded.points) == sorted(p.key for p in result.points)
        assert {p.key: p for p in loaded.points} == {p.key: p for p in result.points}

    def test_resume_through_facade(self, tmp_path):
        store = tmp_path / "store.jsonl"
        api.run_study(StudyRequest(SMALL, n_cycles=2, store=store))
        engine = SweepEngine(n_cycles=2, store=store)
        engine.run(api.resolve_config(SMALL))
        assert engine.stats.profile_jobs_run == 0
        assert engine.stats.points_resumed == SMALL.n_configurations


class TestClassifyStudy:
    def test_multi_size_uses_largest(self):
        cfg = StudyConfig(name="m", algorithms=("threshold",), sizes=(8, 12))
        result = api.run_study(StudyRequest(cfg, n_cycles=1))
        classes = api.classify_study(result)
        assert classes["threshold"].size == 12


class TestStudyRequest:
    def test_typed_request_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            api.run_study(api.StudyRequest(config=SMALL, n_cycles=1))

    def test_typed_request_rejects_extra_kwargs(self):
        with pytest.raises(TypeError):
            api.run_study(api.StudyRequest(config=SMALL), n_cycles=1)

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError, match="n_cycle"):
            api.run_study(SMALL, n_cycle=2)

    def test_request_keywords_beside_a_bare_config_rejected(self):
        with pytest.raises(TypeError, match="n_cycles"):
            api.run_study(SMALL, n_cycles=2)

    def test_bare_config_runs_with_request_defaults(self):
        bare = api.run_study(SMALL)
        typed = api.run_study(StudyRequest(SMALL))
        assert [p.to_dict() for p in bare.points] == [p.to_dict() for p in typed.points]


class TestAdvise:
    def test_typed_round_trip(self, tmp_path):
        advisor = api.advisor(cache=tmp_path / "ledgers.json")
        req = api.AdviseRequest(algorithm="threshold", size=12)
        resp = api.advise(req, advisor=advisor)
        assert resp.algorithm == "threshold"
        assert resp.size == 12
        assert not resp.cache_hit  # first query profiles
        again = api.advise(req, advisor=advisor)
        assert again.cache_hit
        assert again.recommended_cap_w == resp.recommended_cap_w

    def test_kwargs_convenience_form(self, tmp_path):
        advisor = api.advisor(cache=tmp_path / "ledgers.json")
        resp = api.advise(algorithm="threshold", size=12, cap_w=60.0, advisor=advisor)
        assert resp.cap_w == 60.0
        assert resp.point.cap_w == 60.0

    def test_dict_request_accepted(self, tmp_path):
        advisor = api.advisor(cache=tmp_path / "ledgers.json")
        resp = api.advise({"algorithm": "threshold", "size": 12}, advisor=advisor)
        assert resp.algorithm == "threshold"

    def test_response_serialization_round_trip(self, tmp_path):
        import json

        advisor = api.advisor(cache=tmp_path / "ledgers.json")
        resp = api.advise(api.AdviseRequest(algorithm="contour", size=12), advisor=advisor)
        doc = json.loads(json.dumps(resp.to_dict()))
        assert api.AdviseResponse.from_dict(doc) == resp

    def test_request_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            api.AdviseRequest.from_dict({"algorithm": "contour", "size": 12, "bogus": 1})

    def test_unknown_machine_rejected(self):
        with pytest.raises(ValueError, match="machine"):
            api.advise(algorithm="contour", size=12, machine="pentium")
        with pytest.raises(ValueError, match="machine"):
            api.advisor(machine="pentium")


class TestTopLevelExports:
    def test_facade_reexported_from_package_root(self):
        assert repro.run_study is api.run_study
        assert repro.advise is api.advise
        assert repro.StudyRequest is api.StudyRequest
        assert repro.AdviseRequest is api.AdviseRequest
        assert repro.AdviseResponse is api.AdviseResponse
        assert repro.load_result is api.load_result
        assert repro.classify_study is api.classify_study
        assert repro.regenerate_tables is api.regenerate_tables

    def test_regenerate_tables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_SIZE", "12")
        out = api.regenerate_tables(
            ("table1",), cache=tmp_path / "c.json", csv_dir=tmp_path / "csv", n_cycles=1
        )
        assert set(out) == {"table1"}
        assert (tmp_path / "csv" / "table1.csv").exists()

    def test_regenerate_unknown_table_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown table"):
            api.regenerate_tables(("table9",), cache=None)
