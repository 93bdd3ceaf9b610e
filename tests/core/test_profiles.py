"""Profile jobs and the ledger cache.

Every profile job generates its dataset with ``make_dataset``.  The
velocity field is (n, 3) float64, three times the size of the energy
field, and only particle advection reads it, so the job bodies ask for
it only when the filter they run reads ``velocity``.

A :class:`ProfileCache` keys ledgers by (algorithm, size) alone, so it
records the dataset recipe its ledgers came from and refuses another.
One writer at a time drains its puts to disk, so the file always ends
at the latest entries.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.core import SweepEngine, profiles
from repro.core.profiles import ProfileCache, run_algorithm_ledger, run_algorithm_ledger_shard
from repro.viz import ALGORITHMS


@pytest.fixture
def velocity_requests(monkeypatch):
    """Record whether each dataset a profile job builds has velocity."""
    calls = []
    real = profiles.make_dataset

    def spy(n, **kwargs):
        ds = real(n, **kwargs)
        calls.append("velocity" in ds.fields)
        return ds

    monkeypatch.setattr(profiles, "make_dataset", spy)
    return calls


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_job_builds_velocity_only_for_advection(algorithm, velocity_requests):
    run_algorithm_ledger(algorithm, 8)
    assert velocity_requests == [algorithm == "advection"]


def test_shard_job_skips_velocity(velocity_requests):
    run_algorithm_ledger_shard("clip", 8, 0, 2)
    assert velocity_requests == [False]


class TestProfileCacheRecipe:
    def test_put_records_the_bound_recipe(self, tmp_path):
        path = tmp_path / "profiles.json"
        cache = ProfileCache(path)
        cache.bind("blobs", 7)
        cache.put("threshold", 12, {"flops": 1.0})
        doc = json.loads(path.read_text())
        assert doc["recipe"] == {"dataset_kind": "blobs", "seed": 7}

    def test_other_recipe_rejected_naming_both(self, tmp_path):
        path = tmp_path / "profiles.json"
        cache = ProfileCache(path)
        cache.bind("blobs", 7)
        cache.put("threshold", 12, {"flops": 1.0})
        reopened = ProfileCache(path)
        reopened.bind("blobs", 7)  # the same recipe binds again
        with pytest.raises(ValueError, match=r"seed=7.*seed=8"):
            reopened.bind("blobs", 8)
        with pytest.raises(ValueError, match=r"'blobs'.*'sphere'"):
            ProfileCache(path).bind("sphere", 7)

    def test_in_memory_cache_keeps_its_first_recipe(self):
        cache = ProfileCache()
        SweepEngine(workers=0, profile_cache=cache)
        with pytest.raises(ValueError, match=r"\(in memory\).*seed=7.*seed=8"):
            SweepEngine(workers=0, seed=8, profile_cache=cache)

    def test_file_without_recipe_adopted_then_stamped_on_put(self, tmp_path):
        """Older caches carry no recipe: binding adopts one without a
        write (a warm run stays read-only); the next put records it."""
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps({
            "format": ProfileCache.FORMAT,
            "version": ProfileCache.VERSION,
            "entries": {"threshold/12": {"flops": 1.0}},
        }))
        before = path.read_text()
        cache = ProfileCache(path)
        SweepEngine(workers=0, seed=8, profile_cache=cache)
        assert path.read_text() == before
        assert cache.get("threshold", 12) == {"flops": 1.0}
        cache.put("clip", 12, {"flops": 2.0})
        assert json.loads(path.read_text())["recipe"] == {"dataset_kind": "blobs", "seed": 8}


class TestProfileCacheDrain:
    def test_put_during_a_write_lands_on_disk(self, tmp_path, monkeypatch):
        """A put made while another thread's write is in flight returns at
        once; that thread's drain writes it, and its older snapshot never
        replaces the newer one."""
        path = tmp_path / "profiles.json"
        cache = ProfileCache(path)
        real = profiles.atomic_write_json
        in_write, release = threading.Event(), threading.Event()
        writes = []

        def held_write(target, doc, **kwargs):
            writes.append(sorted(doc["entries"]))
            if len(writes) == 1:
                in_write.set()
                release.wait(timeout=30)
            real(target, doc, **kwargs)

        monkeypatch.setattr(profiles, "atomic_write_json", held_write)
        first = threading.Thread(target=cache.put, args=("threshold", 12, {"flops": 1.0}))
        first.start()
        try:
            assert in_write.wait(timeout=30)
            second = threading.Thread(target=cache.put, args=("clip", 12, {"flops": 2.0}))
            second.start()
            second.join(timeout=30)
            assert not second.is_alive()
        finally:
            release.set()
            first.join(timeout=30)
        assert not first.is_alive()
        doc = json.loads(path.read_text())
        assert sorted(doc["entries"]) == ["clip/12", "threshold/12"]
        assert writes == [["threshold/12"], ["clip/12", "threshold/12"]]

    def test_failed_write_leaves_later_puts_persisting(self, tmp_path, monkeypatch):
        path = tmp_path / "profiles.json"
        cache = ProfileCache(path)

        def disk_full(target, doc, **kwargs):
            raise OSError("no space left on device")

        monkeypatch.setattr(profiles, "atomic_write_json", disk_full)
        with pytest.raises(OSError):
            cache.put("threshold", 12, {"flops": 1.0})
        monkeypatch.undo()
        cache.put("clip", 12, {"flops": 2.0})
        assert sorted(json.loads(path.read_text())["entries"]) == ["clip/12", "threshold/12"]

    def test_concurrent_puts_all_reach_the_file(self, tmp_path):
        path = tmp_path / "profiles.json"
        cache = ProfileCache(path)
        n_threads, n_puts = 8, 5

        def writer(t):
            for i in range(n_puts):
                cache.put(f"alg{t}", i + 1, {"flops": float(t * n_puts + i)})

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(t,)) for t in range(n_threads)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(th.is_alive() for th in threads)
        on_disk = json.loads(path.read_text())["entries"]
        assert len(on_disk) == n_threads * n_puts
        assert ProfileCache(path).get("alg7", 5) == {"flops": 39.0}
