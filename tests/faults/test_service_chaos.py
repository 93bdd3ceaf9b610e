"""Service-layer chaos: injector decisions, WAL tearing, the full drill."""

import logging
from dataclasses import replace

import pytest

from repro.core import StudyConfig
from repro.faults import (
    PLANS,
    ChaosReport,
    GovernorChaosReport,
    ServiceChaosReport,
    ServiceFaultInjector,
    get_plan,
    run_service_chaos,
    tear_tail,
)
from repro.faults.plan import InjectedFault
from repro.obs.trace import Tracer, read_trace
from repro.serve import WriteAheadLog

pytestmark = pytest.mark.timeout(600)

CFG = StudyConfig(name="t", algorithms=("threshold",), sizes=(12,))


class TestServiceFaultInjector:
    def test_plans_registry(self):
        service = PLANS["service"]
        assert set(service) >= {"none", "default", "crashy", "torn"}
        assert service["none"].job_crash_p == 0.0
        assert service["default"].torn_wal

    def test_get_service_plan_returns_fresh_counters(self):
        entry = PLANS["service"]["default"]
        a = get_plan("default", "service")
        assert (a.crashes_injected, a.stalls_injected, a.duplicates_injected) == (0, 0, 0)
        assert a._dup_fired == set() and a._dup_fired is not entry._dup_fired
        a.crashes_injected = 5
        a._dup_fired.add("job-x")
        b = get_plan("default", "service")
        assert b.crashes_injected == 0 and b._dup_fired == set()
        assert entry.crashes_injected == 0 and entry._dup_fired == set()

    def test_unknown_plan_lists_names(self):
        with pytest.raises(ValueError, match="for the service drill.*crashy"):
            get_plan("nope", "service")

    def test_probability_validation(self):
        with pytest.raises(ValueError, match="probability"):
            ServiceFaultInjector(job_crash_p=1.5)

    def test_crash_budget_is_respected(self):
        inj = ServiceFaultInjector(job_crash_p=1.0, max_crashes=2, crash_after_groups=1)
        for attempt in range(5):
            events = []
            progress = inj.wrap_progress("job-x", attempt, events.append)
            try:
                progress({"kind": "profile-done"})
            except InjectedFault:
                pass
        assert inj.crashes_injected == 2  # budget, not 5

    def test_wrapped_progress_forwards_events_before_crashing(self):
        inj = ServiceFaultInjector(job_crash_p=1.0, max_crashes=1, crash_after_groups=2)
        events = []
        progress = inj.wrap_progress("job-x", 0, events.append)
        progress({"kind": "profile-done"})  # 1 of 2: no crash yet
        with pytest.raises(InjectedFault) as err:
            progress({"kind": "profile-done"})
        assert err.value.injected  # marked so the supervisor can count it
        assert len(events) == 2  # the inner progress saw everything

    def test_stall_budget(self):
        inj = ServiceFaultInjector(heartbeat_stall_p=1.0, max_stalls=1)
        fired = [inj.stall_heartbeat(f"job-{i}", "w0") for i in range(4)]
        assert sum(fired) == 1

    def test_duplicate_fires_once_per_job(self):
        inj = ServiceFaultInjector(duplicate_delivery_p=1.0)
        assert inj.duplicate_claim("job-x")
        assert not inj.duplicate_claim("job-x")
        assert inj.duplicates_injected == 1

    def test_decisions_are_seeded(self):
        a = ServiceFaultInjector(duplicate_delivery_p=0.5, seed=1)
        b = ServiceFaultInjector(duplicate_delivery_p=0.5, seed=1)
        jobs = [f"job-{i}" for i in range(32)]
        assert [a.duplicate_claim(j) for j in jobs] == [b.duplicate_claim(j) for j in jobs]

    def test_decisions_key_on_submission_order_not_job_ids(self):
        """Two copies of the default plan, handed different job ids in
        the same order, decide the same for each index."""

        def decisions(job_ids):
            inj = get_plan("default", "service")
            inj.order_jobs(job_ids)
            return [
                (
                    inj.duplicate_claim(j),
                    inj.stall_heartbeat(j, 0),
                    inj.wrap_progress(j, 0, print) is not print,
                )
                for j in job_ids
            ]

        first = decisions([f"job-a{i}" for i in range(16)])
        assert first == decisions([f"job-b{i}" for i in range(16)])
        assert {duplicate for duplicate, _, _ in first} == {True, False}


class TestTearWalTail:
    def test_tears_only_the_last_record(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        wal.append({"kind": "submit", "job_id": "job-1", "spec": {}, "t": 1.0})
        wal.append({"kind": "submit", "job_id": "job-2", "spec": {}, "t": 2.0})
        removed = tear_tail(tmp_path / "wal.jsonl")
        assert removed > 0
        survivors = [r["job_id"] for r in WriteAheadLog(tmp_path / "wal.jsonl").replay()]
        assert survivors == ["job-1"]  # job-2's record is the torn tail


def _says_no(report) -> bool:
    return any(line.endswith(": NO") for line in report.render().splitlines())


class TestChaosReport:
    def test_survived_requires_every_clause(self):
        """For every drill's report, ``survived`` is false exactly when a
        printed contract line says NO, with each clause broken in turn."""
        drills = [
            (
                ServiceChaosReport(plan="p", config="c", n_jobs=2, completed=2),
                (
                    dict(completed=1),
                    dict(failed=1),
                    dict(lost=1),
                    dict(bitwise_identical=False),
                    dict(replay_consistent=False),
                ),
            ),
            (
                ChaosReport(plan="p", config="c", expected=3, completed=2, quarantined=1,
                            lost=1),
                (
                    dict(completed=3),
                    dict(lost=2),
                    # A lost key with no quarantine record.
                    dict(lost_unquarantined=1),
                    dict(bitwise_identical=False),
                ),
            ),
            (
                GovernorChaosReport(plan="p", governor="g", control="power",
                                    violations={"reference": 0, "signal-dropout": 0}),
                (
                    dict(violations={"reference": 0, "signal-dropout": 2}),
                    dict(out_of_range_decisions=1),
                    dict(bitwise_identical=False),
                ),
            ),
        ]
        for good, clauses in drills:
            assert good.survived and not _says_no(good), good.render()
            for broken in clauses:
                report = replace(good, **broken)
                assert not report.survived, (type(report).__name__, broken)
                assert _says_no(report), report.render()

    def test_render_names_the_contract(self):
        text = ServiceChaosReport(
            plan="default", config="phase1", n_jobs=2, completed=2
        ).render()
        assert "2/2 completed" in text
        assert "bitwise identical" in text
        assert "replay converges" in text


class TestRunServiceChaos:
    def test_default_plan_survives(self, tmp_path):
        report = run_service_chaos(
            CFG, "default", spool=tmp_path / "spool", n_jobs=2, n_cycles=2
        )
        assert report.survived, report.render()
        # The drill must actually have hurt: crashes and duplicates fired,
        # the WAL was torn, and the queue recovered from all of it.
        assert report.crashes_injected >= 1
        assert report.torn_bytes > 0
        assert report.completed == 2 and report.lost == 0

    def test_none_plan_is_a_clean_run(self, tmp_path):
        report = run_service_chaos(
            CFG, "none", spool=tmp_path / "spool", n_jobs=1, n_cycles=2
        )
        assert report.survived
        assert report.crashes_injected == 0
        assert report.stalls_injected == 0
        assert report.torn_bytes == 0

    def test_chaos_seed_override_still_survives(self, tmp_path):
        # Counts are timing-dependent (a duplicate only fires while the
        # dispatcher observes the job running), so assert the contract,
        # not the exact schedule, under re-seeded plans.
        for seed in (1, 2):
            report = run_service_chaos(
                CFG, get_plan("crashy", "service", seed=seed), spool=tmp_path / f"s{seed}",
                n_jobs=1, n_cycles=2,
            )
            assert report.survived, report.render()

    def test_reused_injector_starts_fresh_each_drill(self, tmp_path):
        # Each drill fires a copy: the budget is the plan's, per drill,
        # and the caller's counters never move.
        injector = ServiceFaultInjector(job_crash_p=1.0, max_crashes=1)
        for run in ("a", "b"):
            report = run_service_chaos(
                CFG, injector, spool=tmp_path / run, n_jobs=1, n_cycles=2
            )
            assert report.survived, report.render()
            # One crash fired in this drill, so the queue retried once.
            assert report.crashes_injected == report.retries == 1, report.render()
        assert injector.crashes_injected == 0 and injector._dup_fired == set()

    def test_trace_covers_every_phase(self, tmp_path):
        path = tmp_path / "service.trace.jsonl"
        with Tracer(path).as_default():
            report = run_service_chaos(
                CFG, "torn", spool=tmp_path / "spool", n_jobs=1, n_cycles=2
            )
        assert report.survived, report.render()
        _, records = read_trace(path)
        spans = [r for r in records if r["kind"] == "span"]
        ids = [r["span_id"] for r in spans]
        assert len(ids) == len(set(ids))
        by_name = {r["name"]: r for r in spans}
        assert {
            "service-chaos", "chaos-reference", "chaos-pass", "chaos-tear-store",
            "chaos-resume", "serve",
        } <= set(by_name)
        root = by_name["service-chaos"]["span_id"]
        for phase in ("chaos-reference", "chaos-pass", "chaos-tear-store", "chaos-resume"):
            assert by_name[phase]["parent_id"] == root, phase
        # One daemon generation per phase, both on the drill's tracer.
        assert sum(r["name"] == "serve" for r in spans) == 2
        assert "serve-wal-torn" in {r["name"] for r in records if r["kind"] == "event"}

    def test_a_torn_wal_line_warns_once(self, tmp_path, caplog):
        # The resumed daemon reports the torn line as it reads it; the
        # drill's replay check re-reads the log without reporting it again.
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            report = run_service_chaos(
                CFG, "torn", spool=tmp_path / "spool", n_jobs=1, n_cycles=2
            )
        assert report.survived, report.render()
        assert report.wal_corrupt_lines == 1
        warned = [r for r in caplog.records if "serve-wal-corrupt-line" in r.getMessage()]
        assert len(warned) == 1
