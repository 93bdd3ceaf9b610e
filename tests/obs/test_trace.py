"""Span tracing: nesting, thread safety, file format, analysis."""

import json
import logging
import threading

import pytest

from repro.obs.trace import (
    TRACE_FORMAT,
    Tracer,
    event,
    get_tracer,
    log_event,
    read_trace,
    render_summary,
    span,
    summarize_trace,
)


@pytest.fixture(autouse=True)
def no_default_tracer():
    """Each test starts (and leaves) with tracing off."""
    assert get_tracer() is None
    yield
    assert get_tracer() is None


class TestSpans:
    def test_span_records_duration_and_attrs(self):
        tr = Tracer()
        with tr.span("work", algorithm="contour", n_cells=8):
            pass
        (rec,) = tr.records()
        assert rec["kind"] == "span"
        assert rec["name"] == "work"
        assert rec["dur_s"] >= 0
        assert rec["attrs"] == {"algorithm": "contour", "n_cells": 8}
        assert rec["parent_id"] is None

    def test_nested_spans_link_parent_ids(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
            with tr.span("sibling"):
                pass
        recs = {r["name"]: r for r in tr.records()}
        # Children close before the parent, so all three are present.
        assert recs["inner"]["parent_id"] == recs["outer"]["span_id"]
        assert recs["sibling"]["parent_id"] == recs["outer"]["span_id"]
        assert recs["outer"]["parent_id"] is None

    def test_span_records_exception_and_propagates(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("doomed"):
                raise RuntimeError("boom")
        (rec,) = tr.records()
        assert "RuntimeError" in rec["error"]

    def test_event_carries_parent_span(self):
        tr = Tracer()
        with tr.span("outer"):
            tr.event("retry", attempt=1)
        ev = [r for r in tr.records() if r["kind"] == "event"][0]
        sp = [r for r in tr.records() if r["kind"] == "span"][0]
        assert ev["parent_id"] == sp["span_id"]
        assert ev["attrs"] == {"attempt": 1}

    def test_record_span_for_remote_work(self):
        tr = Tracer()
        tr.record_span("pool-job", 0.25, algorithm="contour")
        (rec,) = tr.records()
        assert rec["dur_s"] == 0.25
        assert rec["attrs"]["algorithm"] == "contour"

    def test_threads_keep_independent_stacks(self):
        tr = Tracer()
        errors = []

        def worker(name):
            try:
                for _ in range(50):
                    with tr.span(f"outer-{name}"):
                        with tr.span(f"inner-{name}"):
                            pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        recs = tr.records()
        assert len(recs) == 4 * 50 * 2
        by_id = {r["span_id"]: r for r in recs}
        for rec in recs:
            # Every inner span's parent is an outer span from its own thread.
            if rec["name"].startswith("inner"):
                parent = by_id[rec["parent_id"]]
                assert parent["thread"] == rec["thread"]
                assert parent["name"] == rec["name"].replace("inner", "outer")


class TestDefaultTracer:
    def test_module_helpers_are_noops_when_unconfigured(self):
        assert get_tracer() is None
        with span("anything", x=1):  # must not raise or record
            event("ping")

    def test_configure_and_module_span(self):
        tr = Tracer()
        with tr.as_default(), span("phase"):
            event("tick")
        assert {r["name"] for r in tr.records()} == {"phase", "tick"}

    def test_as_default_is_reentrant(self):
        outer, inner = Tracer(), Tracer()
        with outer.as_default():
            assert get_tracer() is outer
            with inner.as_default():
                assert get_tracer() is inner
            assert get_tracer() is outer
        assert get_tracer() is None

    def test_log_event_logs_and_traces(self, caplog):
        tr = Tracer()
        with tr.as_default(), caplog.at_level(logging.WARNING, logger="repro.obs"):
            log_event("cache-corrupt", "the cache is toast", path="/x")
        assert "the cache is toast" in caplog.text
        (rec,) = tr.records()
        assert rec["name"] == "cache-corrupt"
        assert rec["attrs"]["path"] == "/x"

    def test_log_event_without_tracer_still_logs(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            log_event("orphan", "nobody is tracing")
        assert "nobody is tracing" in caplog.text


class TestTraceFile:
    def test_file_gets_header_and_round_trips(self, tmp_path):
        path = tmp_path / "t.trace.jsonl"
        tr = Tracer(path)
        with tr.span("a"):
            tr.event("e")
        first = json.loads(path.read_text().splitlines()[0])
        assert first == {"kind": "header", "format": TRACE_FORMAT, "version": 1}
        header, records = read_trace(path)
        assert header["format"] == TRACE_FORMAT
        assert [r["name"] for r in records] == ["e", "a"]

    def test_reopen_appends_without_second_header(self, tmp_path):
        path = tmp_path / "t.trace.jsonl"
        tr = Tracer(path)
        with tr.span("first"):
            pass
        tr = Tracer(path)
        with tr.span("second"):
            pass
        headers = [
            ln for ln in path.read_text().splitlines() if '"kind": "header"' in ln
        ]
        assert len(headers) == 1
        assert len(read_trace(path)[1]) == 2

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"kind": "header", "format": "something-else"}\n')
        with pytest.raises(ValueError, match="not a trace"):
            read_trace(path)


class TestSummaries:
    def _records(self):
        tr = Tracer()
        for dur in (0.1, 0.3):
            tr.record_span("kernel", dur)
        tr.record_span("sweep", 1.0)
        tr.event("retry")
        return tr.records()

    def test_summarize_aggregates_per_name(self):
        summary = summarize_trace(self._records())
        k = summary["kernel"]
        assert k["count"] == 2
        assert k["total_s"] == pytest.approx(0.4)
        assert k["mean_s"] == pytest.approx(0.2)
        assert k["max_s"] == pytest.approx(0.3)
        assert summary["sweep"]["count"] == 1

    def test_summarize_name_filter(self):
        summary = summarize_trace(self._records(), name="kern")
        assert set(summary) == {"kernel"}

    def test_render_summary_table(self):
        text = render_summary(summarize_trace(self._records()), n_events=1)
        assert "kernel" in text and "sweep" in text
        assert "1 events" in text

    def test_render_empty_summary(self):
        assert "no spans" in render_summary({})
