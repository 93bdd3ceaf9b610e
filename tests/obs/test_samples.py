"""Sample streams: synthesis fidelity, the sampled store, and crash tolerance."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.runner import make_run_point
from repro.core.store import ResultStore
from repro.machine.simulator import Processor
from repro.obs.samples import PowerSample, summarize_samples
from repro.viz import ALGORITHMS
from repro.data.generators import make_dataset

SAMPLE_FIELDS = [f.name for f in dataclasses.fields(PowerSample)]


@pytest.fixture(scope="module")
def run():
    """One closed-form run long enough to need many 100 ms samples."""
    result = ALGORITHMS["contour"]().execute(make_dataset(16, seed=7))
    profile = result.profile
    scaled_segments = [s.scaled(40) for s in profile.segments]
    profile.segments = scaled_segments
    return Processor().run(profile, 70.0)


class TestSampleStream:
    def test_rate_is_at_least_10hz(self, run):
        samples = run.sample_stream(0.1)
        assert len(samples) >= run.time_s / 0.1  # ceil(time/interval) samples
        assert len(samples) / run.time_s >= 10.0 - 1e-9

    def test_time_weighted_mean_matches_power(self, run):
        samples = run.sample_stream(0.1)
        total_dt = sum(s.dt_s for s in samples)
        mean_w = sum(s.power_w * s.dt_s for s in samples) / total_dt
        assert total_dt == pytest.approx(run.time_s, rel=1e-12)
        # The acceptance bar is 1%; piecewise-constant synthesis is exact.
        assert mean_w == pytest.approx(run.avg_power_w, rel=1e-9)

    def test_counters_partition_totals(self, run):
        samples = run.sample_stream(0.1)
        assert sum(s.instructions for s in samples) == pytest.approx(
            run.msr.inst_retired, rel=1e-9
        )
        assert sum(s.llc_misses for s in samples) == pytest.approx(
            run.msr.llc_miss, rel=1e-9
        )

    def test_rejects_nonpositive_interval(self, run):
        with pytest.raises(ValueError, match="positive"):
            run.sample_stream(0.0)


def sampled_store(path, run, caps=(70.0,)) -> ResultStore:
    """A store holding one contour@16 point per cap, each with ``run``'s
    segment records; every append opens the file afresh."""
    ResultStore(path).ensure_compatible("fp")
    for cap in caps:
        point = make_run_point("contour", 16, cap, run, run, 70.0)
        ResultStore(path).append(point, segments=run.records)
    return ResultStore(path)


class TestSampledStore:
    def test_writes_header_and_round_trips(self, tmp_path, run):
        path = tmp_path / "s.jsonl"
        records = sampled_store(path, run).samples()
        lines = path.read_text().splitlines()
        assert len(lines) == 2  # the header and one point line
        assert json.loads(lines[0])["format"] == ResultStore.FORMAT
        stream = run.sample_stream(0.1)
        assert len(records) == len(stream)
        assert records[0]["algorithm"] == "contour"
        assert [r["i"] for r in records] == list(range(len(stream)))
        assert [{f: r[f] for f in SAMPLE_FIELDS} for r in records] == [
            dataclasses.asdict(s) for s in stream
        ]

    def test_segment_line_holds_the_records_exactly(self, tmp_path, run):
        path = tmp_path / "s.jsonl"
        sampled_store(path, run)
        line = json.loads(path.read_text().splitlines()[1])
        assert line["segments"] == [list(dataclasses.astuple(r)) for r in run.records]

    def test_reopened_file_gets_no_second_header(self, tmp_path, run):
        path = tmp_path / "s.jsonl"
        store = sampled_store(path, run, caps=(70.0, 60.0))
        assert len(path.read_text().splitlines()) == 3
        stats = summarize_samples(store.samples())
        assert set(stats) == {("contour", 16, 70.0), ("contour", 16, 60.0)}

    def test_summarize_recovers_run_aggregates(self, tmp_path, run):
        stats = summarize_samples(sampled_store(tmp_path / "s.jsonl", run).samples())
        agg = stats[("contour", 16, 70.0)]
        assert agg["mean_power_w"] == pytest.approx(run.avg_power_w, rel=1e-9)
        assert agg["duration_s"] == pytest.approx(run.time_s, rel=1e-9)
        assert agg["rate_hz"] >= 10.0 - 1e-9


# The child persists one sampled point through the real store (one
# fsync'd line with its segments), starts another line raw, then
# SIGKILLs itself mid-write — the same harness shape as
# tests/core/test_store_crash.py.
_WRITER = """
import os, signal, sys
sys.path.insert(0, {src!r})
from repro.core.runner import make_run_point
from repro.core.store import ResultStore
from repro.data.generators import make_dataset
from repro.machine.simulator import Processor
from repro.viz import ALGORITHMS

result = ALGORITHMS["threshold"]().execute(make_dataset(12, seed=7))
profile = result.profile
profile.segments = [s.scaled(20) for s in profile.segments]
run = Processor().run(profile, 70.0)
store = ResultStore({path!r})
store.ensure_compatible("fp")
store.append(make_run_point("threshold", 12, 70.0, run, run, 70.0), segments=run.records)
with open({path!r}, "a") as fh:
    fh.write('{{"algorithm": "threshold", "cap')
    fh.flush()
    os.fsync(fh.fileno())
os.kill(os.getpid(), signal.SIGKILL)
"""


class TestCrashSafety:
    def test_sigkill_mid_write_keeps_flushed_streams(self, tmp_path):
        src = str(Path(__file__).resolve().parents[2] / "src")
        path = tmp_path / "s.jsonl"
        script = _WRITER.format(src=src, path=str(path))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == -9, proc.stderr  # died by SIGKILL, not error
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format"] == ResultStore.FORMAT
        records = ResultStore(path).samples()
        # Every sample of the completed (fsynced) point survived; the
        # torn tail of the in-flight line was dropped on read.
        assert len(records) >= 1
        assert all(r["algorithm"] == "threshold" for r in records)
        assert [r["i"] for r in records] == list(range(len(records)))
        last_line = path.read_text().splitlines()[-1]
        with pytest.raises(ValueError):
            json.loads(last_line)
