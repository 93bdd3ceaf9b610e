"""Acceptance: a sweep under the default chaos plan survives end to end.

The issue's contract: worker crashes + sample dropout + one torn store
tail — the sweep completes, resumes cleanly, every surviving point is
bitwise identical to a fault-free run, and unrecoverable points become
quarantine records of the store with reasons, never stored points.
"""

import json

import pytest

from repro.cli import main
from repro.core import ResultStore, StudyConfig, SweepEngine, validate_store
from repro.faults import chaos, get_plan, run_chaos

CFG = StudyConfig(name="t", algorithms=("threshold", "clip"), sizes=(12,))


class TestDefaultPlanAcceptance:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        store = tmp_path_factory.mktemp("chaos") / "s.jsonl"
        return run_chaos(CFG, get_plan("default"), store=store, workers=2, n_cycles=2), store

    def test_contract_holds(self, report):
        rep, _ = report
        assert rep.survived
        assert rep.completed == rep.expected == CFG.n_configurations
        assert rep.lost == 0 and rep.quarantined == 0
        assert rep.bitwise_identical

    def test_faults_actually_fired(self, report):
        rep, _ = report
        # Seed 2019 deterministically crashes the clip@12 job once.
        assert rep.faults_injected >= 1
        assert rep.retries >= 1

    def test_torn_tail_recovered_on_resume(self, report):
        rep, _ = report
        assert rep.torn_bytes > 0
        assert rep.resumed_points == rep.expected - 1  # all but the torn point

    def test_machine_probe_saw_sensor_faults(self, report):
        rep, _ = report
        assert rep.samples_seen > 0
        assert rep.cap_decisions > 0

    def test_final_store_validates_clean(self, report):
        _, store = report
        assert validate_store(store).ok

    def test_report_renders(self, report):
        rep, _ = report
        text = rep.render()
        assert "torn tail" in text and "bitwise identical" in text


class TestHostilePlan:
    def test_corruption_quarantined_never_stored(self, tmp_path):
        store = tmp_path / "s.jsonl"
        rep = run_chaos(CFG, get_plan("hostile"), store=store, workers=0, n_cycles=2)
        assert rep.quarantined > 0
        assert rep.lost == rep.quarantined  # quarantined cells are the lost ones
        assert rep.bitwise_identical and rep.survived
        assert rep.quarantine_reasons  # machine-readable codes in the quarantine records
        assert validate_store(store).ok  # the stored points are never polluted

    def test_lost_point_missing_from_the_sidecar_fails(self, tmp_path, monkeypatch):
        # docs/robustness.md: everything lost is quarantined with reasons.
        monkeypatch.setattr(ResultStore, "quarantined", lambda self: [])
        rep = run_chaos(CFG, get_plan("hostile"), store=tmp_path / "s.jsonl", n_cycles=2)
        assert rep.lost > 0 and rep.lost_unquarantined == rep.lost
        assert rep.bitwise_identical and not rep.survived
        assert "every lost point quarantined with a reason: NO" in rep.render()

    def test_torn_quarantine_record_is_quarantined_again(self, tmp_path, monkeypatch):
        """When the store's last record is a quarantine record, the tear
        loses it, and the resume quarantines the point again: the plan's
        corruption is a pure function of the point's key."""
        torn = []

        def tear(path, event_name):
            torn.append(json.loads(path.read_text().splitlines()[-1]))
            return real_tear(path, event_name)

        real_tear = chaos.tear
        monkeypatch.setattr(chaos, "tear", tear)
        store = tmp_path / "s.jsonl"
        cfg = StudyConfig(name="q", algorithms=("contour",), sizes=(12,))
        rep = run_chaos(cfg, get_plan("hostile"), store=store, workers=0, n_cycles=2)
        [last] = torn
        assert set(last) == {"point", "reasons"}  # the tear hit a quarantine record
        assert rep.torn_bytes > 0
        assert rep.resumed_points == rep.completed  # every stored point survived
        keys = [p.key for p, _ in ResultStore(store).quarantined()]
        point = last["point"]
        # The torn record is gone; only the resume's record of the point is left.
        assert keys.count((point["algorithm"], point["size"], point["cap_w"])) == 1
        assert rep.survived
        assert "every lost point quarantined with a reason: yes" in rep.render()

    def test_chaos_is_deterministic(self, tmp_path):
        runs = []
        for name in ("a", "b"):
            rep = run_chaos(
                CFG, get_plan("hostile"), store=tmp_path / f"{name}.jsonl", n_cycles=2
            )
            runs.append(
                (rep.completed, rep.quarantined, rep.lost, rep.faults_injected, rep.retries)
            )
        assert runs[0] == runs[1]


class TestTracedChaos:
    def test_trace_covers_all_phases(self, tmp_path):
        from repro.obs.trace import Tracer, read_trace

        trace = tmp_path / "chaos.trace.jsonl"
        with Tracer(trace).as_default():
            rep = run_chaos(
                CFG, get_plan("default"), store=tmp_path / "s.jsonl", workers=0, n_cycles=2
            )
        assert rep.survived
        _, records = read_trace(trace)
        names = {r["name"] for r in records if r["kind"] == "span"}
        assert {
            "chaos", "chaos-reference", "chaos-pass", "chaos-tear-store",
            "chaos-resume", "chaos-machine-probe", "sweep",
        } <= names
        events = {r["name"] for r in records if r["kind"] == "event"}
        assert "store-torn" in events
        assert "fault-injected" in events


class TestApiFacade:
    """The drill and the doctor called from Python, as ``TestCli`` calls
    them from the shell."""

    def test_run_chaos_accepts_names_and_reseeds(self, tmp_path):
        rep = run_chaos(
            "table1", plan=get_plan("store", seed=123), store=tmp_path / "s.jsonl",
            n_cycles=1,
        )
        assert rep.plan == "store" and rep.survived
        assert rep.torn_bytes > 0

    def test_doctor_facade(self, tmp_path):
        store = tmp_path / "s.jsonl"
        SweepEngine(workers=0, store=store, n_cycles=1).run(CFG)
        assert validate_store(store).ok

    def test_unknown_plan_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown fault plan"):
            run_chaos("phase1", plan="nope", store=tmp_path / "s.jsonl")


class TestCli:
    def test_chaos_then_doctor_roundtrip(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_SIZE", "12")
        store = str(tmp_path / "chaos.jsonl")
        rc = main(["chaos", "phase1", "--cycles", "1", "--store", store])
        out = capsys.readouterr().out
        assert rc == 0
        assert "chaos report" in out and "bitwise identical to fault-free run: yes" in out
        assert main(["doctor", store]) == 0
        assert "all invariants hold" in capsys.readouterr().out

    def test_doctor_flags_damage(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        SweepEngine(workers=0, store=store, n_cycles=1).run(CFG)
        text = store.read_text().splitlines()
        import json

        rec = json.loads(text[1])
        rec["power_w"] = rec["cap_w"] * 9
        text[1] = json.dumps(rec)
        store.write_text("\n".join(text) + "\n")
        assert main(["doctor", str(store)]) == 1
        assert "power-over-cap" in capsys.readouterr().out
        assert main(["doctor", str(store), "--quarantine"]) == 1
        capsys.readouterr()
        assert main(["doctor", str(store)]) == 0
