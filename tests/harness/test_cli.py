"""Command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def small(monkeypatch, tmp_path):
    # Keep CLI runs tiny and isolated from the repo-level cache.
    monkeypatch.setenv("REPRO_MAX_SIZE", "16")
    return tmp_path


class TestCli:
    def test_table1(self, capsys, small):
        assert main(["table1", "--cache", str(small / "c.json"), "--cycles", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "120W" in out

    def test_table2_with_csv(self, capsys, small):
        rc = main([
            "table2", "--cache", str(small / "c.json"), "--cycles", "2",
            "--csv", str(small / "out"),
        ])
        assert rc == 0
        assert (small / "out" / "table2.csv").exists()
        out = capsys.readouterr().out
        assert "volume" in out

    def test_classify(self, capsys, small):
        assert main(["classify", "--cache", str(small / "c.json"), "--cycles", "2"]) == 0
        out = capsys.readouterr().out
        assert "power opportunity" in out or "power sensitive" in out

    def test_max_size_flag(self, capsys, small, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_SIZE")
        assert main([
            "table1", "--max-size", "12", "--cache", "", "--cycles", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "@ 12^3" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["nope"])

    def test_help_documents_repro_max_size(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "REPRO_MAX_SIZE" in capsys.readouterr().out


class TestSweepCommand:
    def test_sweep_runs_and_reports_throughput(self, capsys, small):
        rc = main([
            "sweep", "phase1", "--workers", "0", "--cycles", "2",
            "--store", str(small / "sweep.jsonl"), "--cache", str(small / "c.json"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "9 configurations" in out
        assert "pts/s" in out
        assert "1 profiled" in out
        assert (small / "sweep.jsonl").exists()

    def test_sweep_resumes_from_store(self, capsys, small):
        argv = [
            "sweep", "phase1", "--workers", "0", "--cycles", "2",
            "--store", str(small / "sweep.jsonl"), "--cache", str(small / "c.json"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 profiled" in out
        assert "9 resumed from store" in out

    def test_sweep_no_resume_recomputes(self, capsys, small):
        argv = [
            "sweep", "phase1", "--workers", "0", "--cycles", "2",
            "--store", str(small / "sweep.jsonl"), "--cache", str(small / "c.json"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--no-resume"]) == 0
        out = capsys.readouterr().out
        assert "0 resumed from store" in out

    def test_sweep_parallel_workers(self, capsys, small):
        rc = main([
            "sweep", "phase1", "--workers", "2", "--cycles", "1",
            "--store", str(small / "p.jsonl"), "--cache", "",
        ])
        assert rc == 0
        assert "2 workers" in capsys.readouterr().out

    def test_sweep_rejects_unknown_phase(self, small):
        with pytest.raises(SystemExit):
            main(["sweep", "phase9"])


class TestAdviseCommand:
    def test_single_query_renders_recommendation(self, capsys, small):
        rc = main([
            "advise", "threshold", "12",
            "--cache", str(small / "ledgers.json"), "--cycles", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "threshold@12^3" in out
        assert "recommended cap" in out

    def test_json_output_round_trips(self, capsys, small):
        import json

        rc = main([
            "advise", "contour", "12", "--cap", "60", "--json",
            "--cache", str(small / "ledgers.json"), "--cycles", "2",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["algorithm"] == "contour"
        assert doc["cap_w"] == 60.0
        from repro import api

        assert api.AdviseResponse.from_dict(doc).point.cap_w == 60.0

    def test_requires_algorithm_and_size(self, capsys, small):
        assert main(["advise", "--cache", ""]) == 2
        assert "need ALGORITHM and SIZE" in capsys.readouterr().err

    def test_serve_loop_protocol(self, capsys, small, monkeypatch):
        import io
        import json

        lines = "\n".join([
            json.dumps({"algorithm": "threshold", "size": 12, "id": 1}),
            "",  # blank lines are skipped
            json.dumps({"algorithm": "nope", "size": 12, "id": 2}),
            json.dumps({"algorithm": "threshold", "size": 12, "cap_w": 60.0}),
        ])
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        rc = main([
            "advise", "--serve",
            "--cache", str(small / "ledgers.json"), "--cycles", "2",
        ])
        assert rc == 0
        out = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert len(out) == 3
        assert out[0]["ok"] and out[0]["id"] == 1
        assert out[0]["recommended_cap_w"] >= 40.0
        assert not out[1]["ok"] and out[1]["id"] == 2
        assert "nope" in out[1]["error"]
        assert out[2]["ok"] and out[2]["cap_w"] == 60.0 and "id" not in out[2]

    def test_cache_persists_across_invocations(self, capsys, small):
        argv = [
            "advise", "volume", "12", "--json",
            "--cache", str(small / "ledgers.json"), "--cycles", "2",
        ]
        import json

        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert not first["cache_hit"]
        assert second["cache_hit"]
        assert second["recommended_cap_w"] == first["recommended_cap_w"]


class TestTelemetryCommands:
    def _traced_sweep(self, small):
        store = small / "sweep.jsonl"
        trace = small / "sweep.trace.jsonl"
        rc = main([
            "sweep", "phase1", "--workers", "0", "--cycles", "2",
            "--store", str(store), "--cache", str(small / "c.json"),
            "--trace", str(trace), "--samples",
        ])
        assert rc == 0
        return store, trace

    def test_sweep_writes_telemetry_artifacts(self, capsys, small):
        store, trace = self._traced_sweep(small)
        out = capsys.readouterr().out
        assert "trace:" in out and "samples:" in out
        assert trace.exists()
        assert store.with_suffix(".samples.jsonl").exists()
        assert store.with_suffix(".metrics.json").exists()
        assert store.with_suffix(".manifest.json").exists()

    def test_trace_command_prints_phase_breakdown(self, capsys, small):
        _, trace = self._traced_sweep(small)
        capsys.readouterr()
        assert main(["trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "sweep" in out and "profile-job" in out and "price-group" in out
        assert "phases" in out

    def test_trace_command_name_filter_and_events(self, capsys, small):
        _, trace = self._traced_sweep(small)
        capsys.readouterr()
        assert main(["trace", str(trace), "--name", "kernel", "--events"]) == 0
        out = capsys.readouterr().out
        assert "kernel" in out
        assert "profile-job" not in out

    def test_metrics_command_prometheus_and_json(self, capsys, small):
        store, _ = self._traced_sweep(small)
        metrics = store.with_suffix(".metrics.json")
        capsys.readouterr()
        assert main(["metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_points_total counter" in out
        assert 'repro_points_total{outcome="computed"}' in out
        assert main(["metrics", str(metrics), "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert '"format": "repro-metrics"' in out


class TestAdviseServeHardening:
    def _serve(self, monkeypatch, small, lines):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        return main([
            "advise", "--serve",
            "--cache", str(small / "ledgers.json"), "--cycles", "2",
        ])

    def test_oversized_line_is_answered_and_loop_survives(
        self, capsys, small, monkeypatch
    ):
        import json

        huge = json.dumps({"algorithm": "threshold", "size": 12, "pad": "x" * 70_000})
        good = json.dumps({"algorithm": "threshold", "size": 12, "id": 9})
        rc = self._serve(monkeypatch, small, huge + "\n" + good + "\n")
        assert rc == 0
        out = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert len(out) == 2
        assert not out[0]["ok"] and "exceeds" in out[0]["error"]
        assert out[1]["ok"] and out[1]["id"] == 9  # the loop kept serving

    def test_invalid_json_is_answered_not_fatal(self, capsys, small, monkeypatch):
        import json

        good = json.dumps({"algorithm": "threshold", "size": 12})
        rc = self._serve(monkeypatch, small, "{truncated\n" + good + "\n")
        assert rc == 0
        out = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert not out[0]["ok"]
        assert out[1]["ok"]

    def test_errors_are_counted_by_reason(self, small, monkeypatch, capsys):
        from repro.obs.metrics import get_registry

        counter = get_registry().counter(
            "repro_advise_errors_total", reason="invalid-json"
        )
        before = counter.value
        assert self._serve(monkeypatch, small, "nope\n") == 0
        capsys.readouterr()
        assert counter.value == before + 1


class TestServeAndJobsCommands:
    def test_jobs_submit_then_serve_drain_completes(self, capsys, small):
        import json

        spool = str(small / "spool")
        rc = main(["jobs", spool, "--submit", "phase1", "--cycles", "2",
                   "--cache", ""])
        assert rc == 0
        receipt = json.loads(capsys.readouterr().out)
        assert receipt["ok"] and receipt["status"] == "queued"

        rc = main(["serve", spool, "--drain", "--lease", "5", "--cycles", "2",
                   "--cache", ""])
        assert rc == 0
        assert "1 completed, 0 failed" in capsys.readouterr().out

        rc = main(["jobs", spool, "--status", receipt["job_id"], "--cache", ""])
        assert rc == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["status"] == "completed" and snap["points"] > 0

    def test_jobs_cancel_and_report(self, capsys, small):
        import json

        spool = str(small / "spool")
        assert main(["jobs", spool, "--submit", "phase1", "--cache", ""]) == 0
        job_id = json.loads(capsys.readouterr().out)["job_id"]
        assert main(["jobs", spool, "--cancel", job_id, "--report",
                     "--cache", ""]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert lines[0]["op"] == "cancel" and lines[0]["status"] == "cancelled"
        assert lines[1]["op"] == "report"
        assert lines[1]["counts"]["cancelled"] == 1

    def test_jobs_unknown_id_exits_nonzero(self, capsys, small):
        import json

        rc = main(["jobs", str(small / "spool"), "--status", "job-nope",
                   "--cache", ""])
        assert rc == 1
        assert not json.loads(capsys.readouterr().out)["ok"]

    def test_jobs_stdin_protocol_survives_bad_requests(
        self, capsys, small, monkeypatch
    ):
        import io
        import json

        spool = str(small / "spool")
        lines = "\n".join([
            json.dumps({"op": "submit", "study": "phase1", "id": 1}),
            "not json at all",
            json.dumps({"op": "bogus", "id": 2}),
            json.dumps({"op": "report", "id": 3}),
        ])
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        rc = main(["jobs", spool, "--cycles", "2", "--cache", ""])
        assert rc == 0
        out = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert len(out) == 4
        assert out[0]["ok"] and out[0]["id"] == 1 and out[0]["status"] == "queued"
        assert not out[1]["ok"]
        assert not out[2]["ok"] and "unknown op" in out[2]["error"]
        assert out[3]["ok"] and out[3]["id"] == 3
        assert out[3]["counts"]["pending"] == 1

    def test_chaos_service_plan_requires_service_flag(self, capsys, small):
        rc = main(["chaos", "--plan", "torn", "--cache", ""])
        assert rc == 2
        assert "--service" in capsys.readouterr().err


class TestChaosServiceCommand:
    def test_service_drill_reports_survival(self, capsys, small):
        rc = main([
            "chaos", "--service", "--plan", "torn",
            "--spool", str(small / "spool"), "--jobs", "1", "--cycles", "2",
            "--cache", "",
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "service chaos report" in out
        assert "bitwise identical" in out
