"""SweepService: spool layout, submission ladder, daemon drain, resume."""

import json
import threading
import time

import pytest

from repro.core import ResultStore, StudyConfig, engine
from repro.core.profiles import ProfileCache
from repro.core.study import ALGORITHM_NAMES
from repro.obs.metrics import MetricsRegistry
from repro.serve import SweepService, study_from_dict, study_to_dict

pytestmark = pytest.mark.timeout(300)

CFG = StudyConfig(name="t", algorithms=("threshold",), sizes=(12,))


def make_service(tmp_path, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("lease_s", 2.0)
    kwargs.setdefault("poll_interval_s", 0.01)
    kwargs.setdefault("metrics", MetricsRegistry())
    return SweepService(tmp_path / "spool", **kwargs)


class TestStudySerialization:
    def test_round_trip(self):
        assert study_from_dict(study_to_dict(CFG)) == CFG

    def test_grid_is_explicit_in_the_dict(self):
        doc = study_to_dict(CFG)
        assert doc["algorithms"] == ["threshold"]
        assert doc["sizes"] == [12]
        assert doc["caps_w"] == list(CFG.caps_w)


class TestSubmissionLadder:
    def test_accepted_submission_is_durable(self, tmp_path):
        svc = make_service(tmp_path)
        receipt = svc.submit(CFG, n_cycles=2)
        assert receipt.accepted and receipt.status == "queued"
        assert receipt.job_id.startswith("job-")
        # A brand-new service over the same spool sees the job: the WAL
        # record was fsynced before submit() returned.
        fresh = make_service(tmp_path)
        assert fresh.status(receipt.job_id)["status"] == "pending"

    def test_phase_names_are_rejected(self, tmp_path):
        svc = make_service(tmp_path)
        with pytest.raises(TypeError, match="explicit StudyConfig"):
            svc.submit("phase1")

    def test_queue_full_sheds(self, tmp_path):
        svc = make_service(tmp_path, queue_limit=2)
        assert svc.submit(CFG, n_cycles=2).accepted
        assert svc.submit(CFG, n_cycles=2).accepted
        shed = svc.submit(CFG, n_cycles=2)
        assert not shed.accepted
        assert shed.status == "queue-full" and shed.job_id is None
        assert shed.queue_depth == 2

    def test_open_breaker_sheds_as_degraded(self, tmp_path):
        svc = make_service(tmp_path, breaker_cooldown_s=60.0)
        svc.wal.append({"kind": "breaker", "state": "open", "t": time.time()})
        shed = svc.submit(CFG, n_cycles=2)
        assert shed.status == "degraded" and not shed.accepted

    def test_breaker_cooldown_reopens_the_edge(self, tmp_path):
        svc = make_service(tmp_path, breaker_cooldown_s=0.01)
        svc.wal.append({"kind": "breaker", "state": "open", "t": time.time() - 1.0})
        assert svc.submit(CFG, n_cycles=2).accepted  # record is stale


class TestClientCalls:
    def test_status_of_unknown_job_raises(self, tmp_path):
        with pytest.raises(KeyError, match="unknown job"):
            make_service(tmp_path).status("job-nope")

    def test_cancel_pending_job(self, tmp_path):
        svc = make_service(tmp_path)
        receipt = svc.submit(CFG, n_cycles=2)
        snap = svc.cancel(receipt.job_id)
        assert snap["status"] == "cancelled"
        assert svc.cancel(receipt.job_id)["status"] == "cancelled"  # idempotent

    def test_report_shape(self, tmp_path):
        svc = make_service(tmp_path)
        receipt = svc.submit(CFG, n_cycles=2)
        report = svc.report()
        assert report["counts"]["pending"] == 1
        assert report["queue_depth"] == 1
        assert report["breaker"] == "closed"
        assert report["wal_corrupt_lines"] == 0
        assert [j["job_id"] for j in report["jobs"]] == [receipt.job_id]


class TestDaemon:
    def test_drain_completes_submitted_studies(self, tmp_path):
        svc = make_service(tmp_path)
        r1 = svc.submit(CFG, n_cycles=2)
        r2 = svc.submit(CFG, n_cycles=2)
        report = svc.run_daemon(drain=True)
        assert report["counts"]["completed"] == 2
        for receipt in (r1, r2):
            snap = svc.status(receipt.job_id)
            assert snap["status"] == "completed"
            store = ResultStore(svc.store_path(receipt.job_id))
            assert len(store) == snap["points"] > 0

    def test_metrics_dumped_on_exit(self, tmp_path):
        svc = make_service(tmp_path)
        svc.submit(CFG, n_cycles=2)
        svc.run_daemon(drain=True)
        doc = json.loads((svc.spool / "service.metrics.json").read_text())
        names = {m["name"] for m in doc["metrics"]} if "metrics" in doc else set(doc)
        assert any("repro_serve" in n for n in names)

    def test_second_drain_is_a_noop_resume(self, tmp_path):
        svc = make_service(tmp_path)
        receipt = svc.submit(CFG, n_cycles=2)
        svc.run_daemon(drain=True)
        before = svc.store_path(receipt.job_id).read_bytes()
        fresh = make_service(tmp_path)
        report = fresh.run_daemon(drain=True)
        assert report["counts"]["completed"] == 1
        assert fresh.store_path(receipt.job_id).read_bytes() == before

    def test_concurrent_cold_jobs_keep_every_ledger(self, tmp_path, monkeypatch):
        """Two cold jobs of one recipe on two workers: the recipe's
        ledger file ends holding both jobs' ledgers."""
        halves = (ALGORITHM_NAMES[:4], ALGORITHM_NAMES[4:])
        firsts = {algorithms[0] for algorithms in halves}
        both_running = threading.Barrier(2, timeout=60)
        real = engine.run_algorithm_ledger

        def ledger(algorithm, size, **kwargs):
            # Each job's first execution waits for the other's, so both
            # jobs are under way before either records a ledger.
            if algorithm in firsts:
                both_running.wait()
            return real(algorithm, size, **kwargs)

        monkeypatch.setattr(engine, "run_algorithm_ledger", ledger)
        svc = make_service(tmp_path)
        for algorithms in halves:
            config = StudyConfig(name="t", algorithms=algorithms, sizes=(12,),
                                 caps_w=(120.0, 60.0))
            assert svc.submit(config, n_cycles=2).accepted
        report = svc.run_daemon(drain=True)
        assert report["counts"]["completed"] == 2
        on_disk = ProfileCache(svc.spool / "profiles-blobs-7.json")
        assert sorted(a for a, _, _ in on_disk.entries()) == sorted(ALGORITHM_NAMES)

    def test_jobs_with_different_seeds_get_separate_ledger_files(self, tmp_path):
        svc = make_service(tmp_path)
        svc.submit(CFG, n_cycles=2, seed=7)
        svc.submit(CFG, n_cycles=2, seed=8)
        svc.run_daemon(drain=True)
        assert (svc.spool / "profiles-blobs-7.json").exists()
        assert (svc.spool / "profiles-blobs-8.json").exists()
