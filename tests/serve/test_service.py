"""SweepService: spool layout, submission ladder, daemon drain, resume."""

import json
import threading
import time

import pytest

from repro.core import ResultStore, StudyConfig, engine
from repro.core.profiles import ProfileCache
from repro.core.study import ALGORITHM_NAMES
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, read_trace
from repro.serve import SweepService

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
        assert StudyConfig.from_dict(CFG.to_dict()) == CFG

    def test_grid_is_explicit_in_the_dict(self):
        doc = CFG.to_dict()
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

    def test_a_job_on_an_unreadable_store_fails_on_its_first_delivery(self, tmp_path):
        """An error from the job's own inputs (here a version-1 store)
        would recur on every retry: the job fails on the delivery that
        raised it, and one failure leaves the breaker closed."""
        svc = make_service(tmp_path)
        receipt = svc.submit(CFG, n_cycles=2)
        header = {"format": ResultStore.FORMAT, "version": 1, "fingerprint": "f", "meta": {}}
        svc.store_path(receipt.job_id).write_text(json.dumps(header) + "\n")
        report = svc.run_daemon(drain=True)
        snap = svc.status(receipt.job_id)
        assert snap["status"] == "failed" and snap["failures"] == 1
        assert "version 1" in snap["error"]
        assert [r["kind"] for r in svc.wal.replay()] == ["submit", "claim", "fail"]
        assert report["breaker"] == "closed"

    def test_a_submit_record_naming_another_recipe_fails_on_its_first_delivery(self, tmp_path):
        """Submit records in a spool may name a dataset recipe: the
        study's own runs, and any other fails rather than run the study's."""
        svc = make_service(tmp_path)
        for job_id, seed in (("job-seed7", 7), ("job-seed8", 8)):
            spec = {"study": CFG.to_dict(), "dataset_kind": "blobs", "seed": seed, "n_cycles": 2}
            svc.wal.append({"kind": "submit", "job_id": job_id, "spec": spec, "t": time.time()})
        report = svc.run_daemon(drain=True)
        assert svc.status("job-seed7")["status"] == "completed"
        snap = svc.status("job-seed8")
        assert snap["status"] == "failed" and snap["failures"] == 1
        assert "ValueError: job spec field 'seed' is 8, not the study's 7" in snap["error"]
        assert not svc.store_path("job-seed8").exists()
        assert report["breaker"] == "closed"

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

    def test_handed_in_tracer_stays_open_across_generations(self, tmp_path):
        """Two daemon generations handed one tracer trace into one file,
        one ``serve`` root each, and the tracer still records after them."""
        path = tmp_path / "serve.trace.jsonl"
        tracer = Tracer(path)
        for _ in range(2):
            svc = make_service(tmp_path, trace=tracer)
            svc.submit(CFG, n_cycles=2)
            svc.run_daemon(drain=True)
        tracer.event("after-both-generations")
        _, records = read_trace(path)
        spans = [r for r in records if r["kind"] == "span"]
        roots = [r for r in spans if r["name"] == "serve" and r["parent_id"] is None]
        assert len(roots) == 2
        assert len({r["span_id"] for r in spans}) == len(spans)
        assert "after-both-generations" in {r["name"] for r in records}

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
