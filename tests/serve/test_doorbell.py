"""The WAL's doorbell: every append wakes a daemon waiting on the log.

Every supervisor here polls every 5 s, so only a doorbell ring can
meet each test's bound.
"""

import os
import re
import threading
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve import QueueState, Supervisor, WriteAheadLog

pytestmark = pytest.mark.timeout(60)

POLL_S = 5.0


def submit(wal, job_id):
    wal.append(
        {
            "kind": "submit",
            "job_id": job_id,
            "spec": {"study": {"name": "t"}, "max_retries": 0},
            "t": time.time(),
        }
    )


def stub_runner(job, progress=None):
    return {"points": 1, "store": f"{job.job_id}.jsonl"}


def make_supervisor(wal, runner=stub_runner, **kwargs):
    kwargs.setdefault("workers", 2)
    return Supervisor(
        wal, QueueState(), runner, poll_interval_s=POLL_S, metrics=MetricsRegistry(), **kwargs
    )


class Daemon:
    """A supervisor's ``run()`` in a thread, past its first pass."""

    def __init__(self, sup):
        self.sup = sup
        self.thread = threading.Thread(target=sup.run, daemon=True)
        self.thread.start()
        time.sleep(0.3)  # the first pass is done; the loop now waits

    def stop(self) -> float:
        """Stop the supervisor; the seconds ``run()`` took to return."""
        t0 = time.perf_counter()
        self.sup.stop()
        self.thread.join(timeout=30.0)
        assert not self.thread.is_alive()
        return time.perf_counter() - t0


def fill_pipe(fd):
    """Write until the pipe takes no byte more (a write of up to 4096
    bytes is all or nothing, so finish one byte at a time)."""
    for chunk in (b"\0" * 4096, b"\0"):
        while True:
            try:
                os.write(fd, chunk)
            except BlockingIOError:
                break


class TestWake:
    def test_append_from_another_handle_is_claimed_at_once(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        claimed = threading.Event()

        def runner(job, progress=None):
            claimed.set()
            return stub_runner(job)

        daemon = Daemon(make_supervisor(wal, runner))
        t0 = time.perf_counter()
        submit(WriteAheadLog(tmp_path / "wal.jsonl"), "job-late")
        assert claimed.wait(timeout=1.0)
        assert time.perf_counter() - t0 < 1.0
        daemon.stop()

    def test_one_worker_drains_three_jobs_without_polling(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        for job_id in ("job-a", "job-b", "job-c"):
            submit(wal, job_id)
        sup = make_supervisor(wal, workers=1)
        t0 = time.perf_counter()
        sup.run(drain=True)
        assert time.perf_counter() - t0 < 2.0
        assert sup.state.counts()["completed"] == 3

    def test_stop_from_another_thread_ends_run_at_once(self, tmp_path):
        daemon = Daemon(make_supervisor(WriteAheadLog(tmp_path / "wal.jsonl")))
        assert daemon.stop() < 1.0

    def test_idle_supervisor_does_not_spin(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        daemon = Daemon(make_supervisor(wal))
        # A client rings and closes its end: without the daemon's own
        # write end, the read end would report EOF from now on.
        wal.ring()
        time.sleep(0.1)
        cpu0 = time.process_time()
        time.sleep(1.0)
        assert time.process_time() - cpu0 < 0.25
        daemon.stop()


class TestBestEffort:
    """An append never waits for the doorbell, and its record is durable
    whether or not the poke was delivered."""

    def _append_is_prompt_and_replays(self, wal):
        t0 = time.perf_counter()
        submit(wal, "job-a")
        assert time.perf_counter() - t0 < 1.0
        records = WriteAheadLog(wal.path).replay()
        assert [r["job_id"] for r in records] == ["job-a"]

    def test_no_fifo(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        assert not wal.wake_path.exists()
        self._append_is_prompt_and_replays(wal)

    def test_stale_fifo_without_a_reader(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        os.mkfifo(wal.wake_path)
        self._append_is_prompt_and_replays(wal)

    def test_full_pipe(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        os.mkfifo(wal.wake_path)
        reader = os.open(wal.wake_path, os.O_RDONLY | os.O_NONBLOCK)
        writer = os.open(wal.wake_path, os.O_WRONLY | os.O_NONBLOCK)
        try:
            fill_pipe(writer)
            with pytest.raises(BlockingIOError):
                os.write(writer, b"\0")
            self._append_is_prompt_and_replays(wal)
        finally:
            os.close(writer)
            os.close(reader)

    def test_daemon_reuses_a_stale_fifo(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        os.mkfifo(wal.wake_path)
        claimed = threading.Event()

        def runner(job, progress=None):
            claimed.set()
            return stub_runner(job)

        daemon = Daemon(make_supervisor(wal, runner))
        submit(wal, "job-a")
        assert claimed.wait(timeout=1.0)
        daemon.stop()


class TestWakePathTaken:
    def test_regular_file_raises_naming_it_and_is_left_alone(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        wal.wake_path.write_bytes(b"not a fifo")
        submit(wal, "job-a")
        before = wal.path.read_bytes()
        with pytest.raises(FileExistsError, match=re.escape(str(wal.wake_path))):
            make_supervisor(wal).run(drain=True)
        assert wal.path.read_bytes() == before
        assert wal.wake_path.read_bytes() == b"not a fifo"
