"""The runtime sanitizer: lock-order cycles, reports, env gating."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.lint import sanitizer

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def sanitized():
    sanitizer.install()
    sanitizer.reset()
    try:
        yield sanitizer
    finally:
        sanitizer.reset()
        sanitizer.uninstall()


def test_install_uninstall_roundtrip():
    was_installed = sanitizer.installed()  # e.g. REPRO_SANITIZE=1 test runs
    sanitizer.uninstall()
    real = threading.Lock
    sanitizer.install()
    try:
        assert sanitizer.installed()
        assert threading.Lock is not real
        lock = threading.Lock()
        assert isinstance(lock, sanitizer.SanitizedLock)
        with lock:
            assert lock.locked()
        assert not lock.locked()
    finally:
        sanitizer.uninstall()
    assert threading.Lock is real
    assert not sanitizer.installed()
    if was_installed:
        sanitizer.install()


def test_lock_order_cycle_detected_without_deadlocking(sanitized):
    a = threading.Lock()
    b = threading.Lock()

    def ab():
        with a:
            with b:
                pass

    def ba():
        with b:
            with a:
                pass

    # Run the two orders sequentially: the graph records the hazard even
    # though this interleaving never actually deadlocks.
    t1 = threading.Thread(target=ab)
    t1.start()
    t1.join()
    t2 = threading.Thread(target=ba)
    t2.start()
    t2.join()

    doc = sanitized.report()
    assert len(doc["cycles"]) == 1
    assert not doc["ok"]


def test_consistent_order_has_no_cycle(sanitized):
    a = threading.Lock()
    b = threading.Lock()

    def ab():
        with a:
            with b:
                pass

    for _ in range(2):
        t = threading.Thread(target=ab)
        t.start()
        t.join()
    doc = sanitized.report()
    assert doc["cycles"] == []
    assert doc["ok"]
    assert sanitized.render(doc).splitlines()[-1] == "  no lock-order cycles"


def test_same_site_locks_do_not_self_cycle(sanitized):
    def make():
        return threading.Lock()

    locks = [make() for _ in range(2)]
    with locks[0]:
        with locks[1]:
            pass
    with locks[1]:
        with locks[0]:
            pass
    assert sanitized.report()["cycles"] == []


def test_rlock_reentrancy_survives_wrapping(sanitized):
    r = threading.RLock()
    with r:
        with r:
            assert r._is_owned()
    doc = sanitized.report()
    assert doc["cycles"] == []


def test_env_gate_installs_on_import():
    code = (
        "import repro\n"
        "from repro.lint import sanitizer\n"
        "raise SystemExit(0 if sanitizer.installed() else 3)\n"
    )
    env = dict(os.environ, REPRO_SANITIZE="1", PYTHONPATH=str(REPO_SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env)
    assert proc.returncode == 0

    env.pop("REPRO_SANITIZE")
    proc = subprocess.run([sys.executable, "-c", code], env=env)
    assert proc.returncode == 3


def test_condition_and_event_still_work_when_sanitized(sanitized):
    ev = threading.Event()

    def setter():
        time.sleep(0.01)
        ev.set()

    t = threading.Thread(target=setter)
    t.start()
    assert ev.wait(timeout=5.0)
    t.join()
