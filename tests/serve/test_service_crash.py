"""Crash safety: a daemon SIGKILLed mid-sweep loses nothing on restart.

The child process submits two studies and runs the daemon with no drain
flag (it would run forever); the parent waits for the first completed
point to hit a job store, SIGKILLs the daemon, then restarts over the
same spool and drains.  The contract: every job completes, no job is
duplicated, and every surviving point is bitwise identical to an
uninterrupted in-process run.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import ResultStore, StudyConfig, SweepEngine
from repro.obs.metrics import MetricsRegistry
from repro.serve import QueueState, SweepService, WriteAheadLog

pytestmark = pytest.mark.timeout(600)

CFG = StudyConfig(name="crash", algorithms=("threshold", "contour"), sizes=(8, 12))
N_JOBS = 2
N_CYCLES = 2

_DAEMON = """
import sys
sys.path.insert(0, {src!r})
from repro.core.study import StudyConfig
from repro.serve import SweepService

svc = SweepService({spool!r}, workers=2, lease_s=2.0, poll_interval_s=0.01)
cfg = StudyConfig(name="crash", algorithms=("threshold", "contour"), sizes=(8, 12))
for _ in range({n_jobs}):
    receipt = svc.submit(cfg, n_cycles={cycles}, max_retries=2)
    assert receipt.accepted, receipt
svc.run_daemon()  # no drain: runs until killed
"""


def _spawn_and_kill_mid_sweep(tmp_path):
    """Start the daemon child, SIGKILL it after the first point lands."""
    spool = tmp_path / "spool"
    script = _DAEMON.format(
        src=str(Path(__file__).resolve().parents[2] / "src"),
        spool=str(spool),
        n_jobs=N_JOBS,
        cycles=N_CYCLES,
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.time() + 120.0
    try:
        while time.time() < deadline:
            if proc.poll() is not None:  # died on its own: submit failed
                raise AssertionError(
                    f"daemon exited early rc={proc.returncode}: {proc.stderr.read()}"
                )
            stores = list((spool / "stores").glob("*.jsonl")) if spool.exists() else []
            # header line + at least one complete point in any job store
            if any(len(s.read_bytes().splitlines()) >= 2 for s in stores):
                break
            time.sleep(0.005)
        else:
            raise AssertionError("no point ever landed in a job store")
    finally:
        if proc.poll() is None:
            os.kill(proc.pid, signal.SIGKILL)
    proc.wait(timeout=30.0)
    assert proc.returncode == -9  # died by SIGKILL, not by error
    return spool


def _reference_points():
    engine = SweepEngine(n_cycles=N_CYCLES, workers=0)
    return [p.to_dict() for p in engine.run(CFG).points]


def test_restart_replays_and_completes_bitwise(tmp_path):
    spool = _spawn_and_kill_mid_sweep(tmp_path)

    svc = SweepService(
        spool, workers=2, lease_s=2.0, poll_interval_s=0.01, metrics=MetricsRegistry()
    )
    report = svc.run_daemon(drain=True)

    # No job lost, none failed, none silently duplicated.
    assert report["counts"]["completed"] == N_JOBS, report
    assert report["counts"]["failed"] == 0
    assert len(report["jobs"]) == N_JOBS

    reference = _reference_points()
    key = lambda d: json.dumps(d, sort_keys=True)
    for job in report["jobs"]:
        points = [p.to_dict() for p in ResultStore(svc.store_path(job["job_id"]))]
        assert len(points) == len(reference)  # complete, no duplicate points
        assert sorted(map(key, points)) == sorted(map(key, reference))

    # A second replay over the same WAL converges to the same state.
    wal = WriteAheadLog(spool / "wal.jsonl")
    state = QueueState()
    state.apply_all(wal.replay())
    assert state.counts() == report["counts"]


def test_orphaned_lease_is_visible_then_reclaimed(tmp_path):
    spool = _spawn_and_kill_mid_sweep(tmp_path)

    # Replay alone (no daemon): the killed generation's claims surface
    # as running jobs whose heartbeats will never resume.
    state = QueueState()
    state.apply_all(WriteAheadLog(spool / "wal.jsonl").replay())
    assert len(state.jobs) == N_JOBS
    assert all(not j.terminal for j in state.jobs.values())

    svc = SweepService(
        spool, workers=1, lease_s=2.0, poll_interval_s=0.01, metrics=MetricsRegistry()
    )
    report = svc.run_daemon(drain=True)
    assert report["counts"]["completed"] == N_JOBS
