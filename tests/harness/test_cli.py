"""Command-line interface."""

import pytest

from repro.cli import main
from repro.core import ResultStore


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

        # The printed answer is the protocol's own: the same query, asked
        # in-process of the ledgers the command recorded, gives the same
        # dict but for its latency and cache hit.
        advisor = api.advisor(cache=small / "ledgers.json", n_cycles=2)
        again = api.advise(api.AdviseRequest("contour", 12, cap_w=60.0), advisor=advisor)
        want = json.loads(json.dumps(again.to_dict()))
        for d in (doc, want):
            del d["latency_s"], d["cache_hit"]
        assert doc == want

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

    def test_serve_shares_ledgers_across_machines(self, capsys, small, monkeypatch):
        import io
        import json

        from repro.core.profiles import ProfileCache

        path = small / "counts.json"
        asked = [("threshold", "broadwell"), ("threshold", "skylake"), ("contour", "broadwell")]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(
            json.dumps({"algorithm": a, "size": 12, "machine": m}) for a, m in asked
        )))
        assert main(["advise", "--serve", "--cache", str(path), "--cycles", "2"]) == 0
        out = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert [(r["algorithm"], r["machine"], r["cache_hit"]) for r in out] == [
            ("threshold", "broadwell", False),
            ("threshold", "skylake", True),
            ("contour", "broadwell", False),
        ]
        on_disk = ProfileCache(path)
        assert sorted((a, s) for a, s, _ in on_disk.entries()) == [
            ("contour", 12), ("threshold", 12),
        ]

    def test_answers_from_the_sweep_cache_by_default(self, capsys, small, monkeypatch):
        import json

        monkeypatch.chdir(small)
        assert main(["sweep", "phase1", "--workers", "0", "--cycles", "2"]) == 0
        capsys.readouterr()
        for machine in ("broadwell", "skylake"):
            assert main(["advise", "contour", "16", "--json", "--cycles", "2",
                         "--machine", machine]) == 0
            assert json.loads(capsys.readouterr().out)["cache_hit"], machine


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
        assert "trace:" in out
        assert ResultStore(store).samples()  # the segment records live in the store
        assert sorted(p.name for p in small.glob("sweep.*")) == [
            "sweep.jsonl", "sweep.metrics.json", "sweep.trace.jsonl",
        ]

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
    def _serve_loops(self, small):
        """(argv, one good request) for both JSONL serve loops."""
        return [
            (
                ["advise", "--serve", "--cache", str(small / "ledgers.json"), "--cycles", "2"],
                {"algorithm": "threshold", "size": 12, "id": 9},
            ),
            (["jobs", str(small / "spool")], {"op": "report", "id": 9}),
        ]

    def test_oversized_line_is_answered_and_loop_survives(
        self, capsys, small, monkeypatch
    ):
        import io
        import json

        for argv, good in self._serve_loops(small):
            huge = json.dumps({**good, "pad": "x" * 70_000})
            lines = huge + "\n" + json.dumps(good) + "\n"
            monkeypatch.setattr("sys.stdin", io.StringIO(lines))
            assert main(argv) == 0
            out = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
            assert len(out) == 2, argv[0]
            assert not out[0]["ok"] and "exceeds" in out[0]["error"]
            assert out[1]["ok"] and out[1]["id"] == 9  # the loop kept serving

    def test_invalid_json_is_answered_not_fatal(self, capsys, small, monkeypatch):
        import io
        import json

        for argv, good in self._serve_loops(small):
            monkeypatch.setattr("sys.stdin", io.StringIO("{truncated\n" + json.dumps(good) + "\n"))
            assert main(argv) == 0
            out = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
            assert not out[0]["ok"] and out[0]["error"].startswith("invalid JSON"), argv[0]
            assert out[1]["ok"]


class TestServeAndJobsCommands:
    def test_jobs_submit_then_serve_drain_completes(self, capsys, small):
        import json

        spool = str(small / "spool")
        rc = main(["jobs", spool, "--submit", "phase1", "--cycles", "2"])
        assert rc == 0
        receipt = json.loads(capsys.readouterr().out)
        assert receipt["ok"] and receipt["status"] == "queued"

        rc = main(["serve", spool, "--drain", "--lease", "5"])
        assert rc == 0
        assert "1 completed, 0 failed" in capsys.readouterr().out

        rc = main(["jobs", spool, "--status", receipt["job_id"]])
        assert rc == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["status"] == "completed" and snap["points"] > 0

    def test_jobs_cancel_and_report(self, capsys, small):
        import json

        spool = str(small / "spool")
        assert main(["jobs", spool, "--submit", "phase1"]) == 0
        job_id = json.loads(capsys.readouterr().out)["job_id"]
        assert main(["jobs", spool, "--cancel", job_id, "--report"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert lines[0]["op"] == "cancel" and lines[0]["status"] == "cancelled"
        assert lines[1]["op"] == "report"
        assert lines[1]["counts"]["cancelled"] == 1

    def test_jobs_unknown_id_exits_nonzero(self, capsys, small):
        import json

        rc = main(["jobs", str(small / "spool"), "--status", "job-nope"])
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
        rc = main(["jobs", spool, "--cycles", "2"])
        assert rc == 0
        out = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert len(out) == 4
        assert out[0]["ok"] and out[0]["id"] == 1 and out[0]["status"] == "queued"
        assert not out[1]["ok"]
        assert not out[2]["ok"] and "unknown op" in out[2]["error"]
        assert out[3]["ok"] and out[3]["id"] == 3
        assert out[3]["counts"]["pending"] == 1

    @pytest.mark.parametrize("argv", [
        ["serve", "spool", "--max-size", "16"],
        ["serve", "spool", "--cycles", "2"],
        ["serve", "spool", "--csv", "out"],
        ["serve", "spool", "--cache", ""],
        ["jobs", "spool", "--csv", "out"],
        ["jobs", "spool", "--cache", ""],
        ["chaos", "phase1", "--csv", "out"],
        ["chaos", "phase1", "--cache", ""],
        ["sweep", "phase1", "--csv", "out"],
    ])
    def test_subcommands_reject_flags_they_ignore(self, capsys, argv):
        """Jobs carry their own grid and cycles, so serve reads none of
        the shared flags; only the table commands write --csv, and
        chaos and the service keep their own ledger caches."""
        with pytest.raises(SystemExit) as exc:
            main(argv)  # argparse exits before anything touches "spool"
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_chaos_service_plan_requires_service_flag(self, capsys, small):
        rc = main(["chaos", "--plan", "torn"])
        assert rc == 2
        assert "--service" in capsys.readouterr().err


class TestChaosServiceCommand:
    def test_service_drill_reports_survival(self, capsys, small):
        rc = main([
            "chaos", "--service", "--plan", "torn",
            "--spool", str(small / "spool"), "--jobs", "1", "--cycles", "2",
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "service chaos report" in out
        assert "bitwise identical" in out


class TestChaosGovernorCommand:
    def _drill(self, capsys, *extra):
        rc = main(["chaos", "--governor", "--plan", "default", "--epochs", "6", *extra])
        out = capsys.readouterr().out
        assert rc == 0, out
        return out

    def test_seed_reseeds_the_signal_faults(self, capsys):
        # The plan's own seed (2019) drops 13 of the 24 samples.
        for _ in range(2):
            assert "7/24 samples dropped" in self._drill(capsys, "--seed", "99")

    def test_trace_records_the_drill_spans(self, capsys, tmp_path):
        from repro.obs.trace import read_trace

        trace = tmp_path / "governor.trace.jsonl"
        self._drill(capsys, "--trace", str(trace))
        _, records = read_trace(trace)
        names = {r["name"] for r in records if r["kind"] == "span"}
        assert {"governor-chaos", "governor-drill"} <= names
