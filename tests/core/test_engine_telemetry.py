"""End-to-end telemetry: one traced, sampled, metered sweep."""

import gc
import json
import warnings

import pytest

from repro.core import EngineStats, ResultStore, StudyConfig, SweepEngine
from repro.core.engine import SweepInterrupted
from repro.core.profiles import DATASET_RECIPE
from repro.faults import FaultPlan, tear_tail
from repro.obs.metrics import MetricsRegistry, load_metrics
from repro.obs.samples import summarize_samples
from repro.obs.trace import get_tracer, read_trace, summarize_trace
from repro.serve import SweepService

CFG = StudyConfig(name="tele", algorithms=("threshold", "contour"), sizes=(32,))


@pytest.fixture(scope="module")
def traced_sweep(tmp_path_factory):
    """One serial traced sweep with samples, metrics and a store."""
    tmp = tmp_path_factory.mktemp("telemetry")
    store = tmp / "sweep.jsonl"
    trace = tmp / "sweep.trace.jsonl"
    registry = MetricsRegistry()
    engine = SweepEngine(
        n_cycles=2,
        workers=0,
        store=store,
        trace=str(trace),
        samples=True,
        metrics=registry,
    )
    result = engine.run(CFG)
    return engine, result, store, trace


class TestStatsAreTheFoldOfTheEvents:
    @pytest.fixture(scope="class")
    def faulted_sweep(self, tmp_path_factory):
        """A sweep whose plan crashes every first job attempt (so each
        group retries) and corrupts some points (so some are quarantined)."""
        events = []
        engine = SweepEngine(
            n_cycles=2,
            workers=0,
            backoff_s=0.001,
            store=tmp_path_factory.mktemp("fold") / "sweep.jsonl",
            faults=FaultPlan(seed=41, worker_crash_p=1.0, point_corrupt_p=0.4),
            progress=events.append,
            metrics=MetricsRegistry(),
        )
        engine.run(StudyConfig(name="fold", algorithms=("threshold", "clip"), sizes=(12,)))
        return engine, events

    def test_the_plan_exercises_every_fault_path(self, faulted_sweep):
        engine, _ = faulted_sweep
        assert engine.stats.retries >= 1
        assert engine.stats.faults_injected >= 1
        assert engine.stats.points_quarantined >= 1

    def test_stats_equal_a_fresh_fold_of_the_progress_events(self, faulted_sweep):
        engine, events = faulted_sweep
        folded = EngineStats()
        for event in events:
            folded.fold(event)
        assert folded == engine.stats

    def test_registry_counters_equal_the_stats(self, faulted_sweep):
        engine, _ = faulted_sweep
        reg, s = engine.metrics, engine.stats
        jobs, points = "repro_profile_jobs_total", "repro_points_total"
        assert reg.counter(jobs, source="executed").value == s.profile_jobs_run
        assert reg.counter(jobs, source="ledger-cache").value == s.profile_jobs_cached
        assert reg.counter(jobs, source="sharded").value == s.shard_tasks_run
        assert reg.counter(points, outcome="computed").value == s.points_computed
        assert reg.counter(points, outcome="resumed").value == s.points_resumed
        assert reg.counter(points, outcome="quarantined").value == s.points_quarantined
        assert reg.counter("repro_retries_total").value == s.retries
        assert reg.counter("repro_faults_injected_total").value == s.faults_injected
        assert reg.counter("repro_rapl_decisions_total").value == s.rapl_decisions
        assert reg.counter("repro_rapl_throttle_decisions_total").value == (
            s.rapl_throttle_decisions
        )
        assert reg.gauge("repro_sweep_wall_seconds").value == s.wall_s

    def test_summary_carries_the_fold(self, faulted_sweep):
        engine, events = faulted_sweep
        summary = events[-1]
        assert summary["kind"] == "summary"
        assert summary["computed"] == engine.stats.points_computed
        assert summary["resumed"] == engine.stats.points_resumed
        assert summary["quarantined"] == engine.stats.points_quarantined
        assert summary["jobs_run"] == engine.stats.profile_jobs_run
        assert summary["retries"] == engine.stats.retries
        assert summary["rapl_decisions"] == engine.stats.rapl_decisions
        assert summary["wall_s"] == engine.stats.wall_s

    def test_a_fact_counts_when_the_callback_raises(self, tmp_path):
        def stop_after_first_group(event):
            if event["kind"] == "group-priced":
                raise SweepInterrupted("stop")

        store = tmp_path / "sweep.jsonl"
        engine = SweepEngine(
            n_cycles=2,
            workers=0,
            store=store,
            progress=stop_after_first_group,
            metrics=MetricsRegistry(),
        )
        with pytest.raises(SweepInterrupted):
            engine.run(CFG)
        assert engine.stats.points_computed == 9  # the stopped group's points
        assert engine.stats.interrupted
        dumped = load_metrics(store.with_suffix(".metrics.json"))
        assert dumped.counter("repro_points_total", outcome="computed").value == 9


class TestTrace:
    def test_trace_parses_with_engine_and_kernel_spans(self, traced_sweep):
        _, _, _, trace = traced_sweep
        header, records = read_trace(trace)
        assert header["format"] == "repro-trace"
        names = {r["name"] for r in records if r["kind"] == "span"}
        # Engine spans and (serial mode) in-process kernel spans.
        assert {"sweep", "profile-job", "price-group", "kernel"} <= names
        summary = summarize_trace(records)
        assert summary["profile-job"]["count"] == 2
        assert summary["price-group"]["count"] == 2
        assert summary["kernel"]["count"] >= 2

    def test_spans_nest_under_the_sweep_root(self, traced_sweep):
        _, _, _, trace = traced_sweep
        _, records = read_trace(trace)
        spans = {r["span_id"]: r for r in records if r["kind"] == "span"}
        root = [r for r in spans.values() if r["name"] == "sweep"]
        assert len(root) == 1
        for r in spans.values():
            if r["name"] == "price-group":
                assert spans[r["parent_id"]]["name"] == "sweep"

    def test_default_tracer_restored_after_run(self, traced_sweep):
        assert get_tracer() is None


def segment_lines(store) -> list[dict]:
    """The store's records that carry segments."""
    records = [json.loads(line) for line in store.read_text().splitlines()[1:]]
    return [r for r in records if "segments" in r]


class TestSamples:
    def test_one_segment_line_per_stored_point(self, traced_sweep):
        _, result, store, _ = traced_sweep
        # The header, then one line per point, each carrying its segments:
        # the sampled store is the only file a point's evidence lives in.
        assert len(store.read_text().splitlines()) == 1 + len(result.points)
        assert len(segment_lines(store)) == len(result.points)

    def test_stream_exists_per_point_at_10hz(self, traced_sweep):
        _, result, store, _ = traced_sweep
        stats = summarize_samples(ResultStore(store).samples())
        assert set(stats) == {p.key for p in result.points}
        for agg in stats.values():
            assert agg["rate_hz"] >= 10.0 - 1e-9

    def test_stream_mean_power_matches_reported(self, traced_sweep):
        _, result, store, _ = traced_sweep
        stats = summarize_samples(ResultStore(store).samples())
        for p in result.points:
            agg = stats[p.key]
            # Acceptance bar: within 1%.  Synthesis is exact, so equal.
            assert agg["mean_power_w"] == pytest.approx(p.power_w, rel=1e-9)
            assert agg["duration_s"] == pytest.approx(p.time_s, rel=1e-9)


class TestStoreHeader:
    def test_header_carries_the_sweep_context(self, traced_sweep):
        """The header is the one record of the context; no sidecar
        manifest is written."""
        engine, _, store, _ = traced_sweep
        header = json.loads(store.read_text().splitlines()[0])
        assert header["fingerprint"] == engine.fingerprint()
        assert header["meta"] == {"config_name": "tele", **engine.context()}
        assert header["meta"]["seed"] == DATASET_RECIPE["seed"]
        assert header["meta"]["spec"]["tdp_watts"] == engine.spec.tdp_watts
        assert ResultStore(store).spec == engine.spec
        assert not list(store.parent.glob("*.manifest.json"))


class TestMetrics:
    def test_counters_reflect_the_run(self, traced_sweep):
        engine, result, _, _ = traced_sweep
        reg = engine.metrics
        assert reg.counter("repro_profile_jobs_total", source="executed").value == 2
        assert reg.counter("repro_points_total", outcome="computed").value == len(
            result.points
        )
        assert reg.counter("repro_rapl_decisions_total").value > 0
        assert reg.gauge("repro_sweep_wall_seconds").value > 0

    def test_metrics_dumped_next_to_store(self, traced_sweep):
        engine, _, store, _ = traced_sweep
        dumped = load_metrics(store.with_suffix(".metrics.json"))
        assert dumped.to_json() == engine.metrics.to_json()

    def test_dump_holds_only_the_run_that_wrote_it(self, tmp_path):
        """Two runs publishing into one registry: each store's dump
        counts its own run, the registry counts both."""
        registry = MetricsRegistry()
        one = StudyConfig(name="one", algorithms=("threshold",), sizes=(12,))
        for name in ("a", "b"):
            store = tmp_path / f"{name}.jsonl"
            SweepEngine(n_cycles=2, workers=0, store=store, metrics=registry).run(one)
            dumped = load_metrics(store.with_suffix(".metrics.json"))
            assert dumped.counter("repro_points_total", outcome="computed").value == 9
        assert registry.counter("repro_points_total", outcome="computed").value == 18

    def test_prometheus_exposition(self, traced_sweep):
        engine, _, _, _ = traced_sweep
        text = engine.metrics.to_prometheus()
        assert "# TYPE repro_points_total counter" in text
        assert 'repro_points_total{outcome="computed"}' in text
        assert "repro_sweep_wall_seconds" in text


class TestResumeTelemetry:
    def test_resumed_run_appends_to_the_same_trace(self, traced_sweep, tmp_path):
        engine, result, store, trace = traced_sweep
        again = SweepEngine(
            n_cycles=2,
            workers=0,
            store=store,
            trace=str(trace),
            samples=True,
            metrics=MetricsRegistry(),
        )
        resumed = again.run(CFG)
        assert again.stats.points_resumed == len(result.points)
        _, records = read_trace(trace)
        sweeps = [r for r in records if r.get("name") == "sweep"]
        assert len(sweeps) == 2
        assert again.metrics.counter("repro_points_total", outcome="resumed").value == len(
            resumed.points
        )

    def test_fresh_rerun_rewrites_the_samples_file(self, tmp_path):
        store = tmp_path / "sweep.jsonl"
        one = StudyConfig(name="one", algorithms=("threshold",), sizes=(12,))
        for resume in (True, False):
            engine = SweepEngine(n_cycles=2, workers=0, store=store, samples=True)
            result = engine.run(one, resume=resume)
        assert len(segment_lines(store)) == len(result.points)

    def test_torn_sampled_store_resumes_one_stream_per_point(self, tmp_path):
        """A kill mid-append tears a point and its segments together, so
        the resumed sweep stores each point's stream exactly once."""
        store = tmp_path / "sweep.jsonl"
        one = StudyConfig(name="one", algorithms=("threshold", "contour"), sizes=(12,))
        SweepEngine(n_cycles=2, workers=0, store=store, samples=True).run(one)
        assert tear_tail(store) > 0
        engine = SweepEngine(n_cycles=2, workers=0, store=store, samples=True)
        result = engine.run(one)
        assert engine.stats.points_computed == 1  # only the torn point
        stats = summarize_samples(ResultStore(store).samples())
        assert set(stats) == {p.key for p in result.points}
        for p in result.points:
            assert stats[p.key]["duration_s"] == pytest.approx(p.time_s, rel=1e-9)
        assert len(segment_lines(store)) == len(result.points)

    def test_fresh_rerun_resets_the_quarantine_records(self, tmp_path):
        """Quarantined points of an earlier sweep do not survive a fresh
        run that quarantines nothing."""
        store = tmp_path / "sweep.jsonl"
        cfg = StudyConfig(name="q", algorithms=("threshold", "clip"), sizes=(12,))
        faulted = SweepEngine(
            n_cycles=2,
            workers=0,
            store=store,
            faults=FaultPlan(seed=41, point_corrupt_p=0.4),
            metrics=MetricsRegistry(),
        )
        faulted.run(cfg)
        assert ResultStore(store).quarantined()
        fresh = SweepEngine(n_cycles=2, workers=0, store=store, metrics=MetricsRegistry())
        fresh.run(cfg, resume=False)
        assert fresh.stats.points_quarantined == 0
        assert ResultStore(store).quarantined() == []

    def test_samples_flag_without_store_rejected(self):
        with pytest.raises(ValueError, match="needs a store"):
            SweepEngine(samples=True)

    def test_samples_takes_a_bool_only(self, tmp_path):
        store = tmp_path / "sweep.jsonl"
        with pytest.raises(TypeError, match="bool"):
            SweepEngine(store=store, samples=str(tmp_path / "sweep.samples.jsonl"))


def test_no_file_handle_outlives_a_traced_sweep_or_daemon(tmp_path):
    """A traced, sampled sweep and one traced daemon generation leave no
    file open: collecting them emits no ``ResourceWarning``."""
    one = StudyConfig(name="one", algorithms=("threshold",), sizes=(12,))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        engine = SweepEngine(
            n_cycles=2,
            workers=0,
            store=tmp_path / "sweep.jsonl",
            trace=str(tmp_path / "sweep.trace.jsonl"),
            samples=True,
            metrics=MetricsRegistry(),
        )
        engine.run(one)
        service = SweepService(
            tmp_path / "spool",
            workers=1,
            poll_interval_s=0.01,
            metrics=MetricsRegistry(),
            trace=tmp_path / "serve.trace.jsonl",
        )
        service.submit(one, n_cycles=2)
        service.run_daemon(drain=True)
        del engine, service
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []
