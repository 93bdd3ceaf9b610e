"""Profile jobs and the ledger cache.

Every profile job generates its dataset with ``make_dataset``.  The
velocity field is (n, 3) float64, three times the size of the energy
field, and only particle advection reads it, so the job bodies ask for
it only when the filter they run reads ``velocity``.

A :class:`ProfileCache` keys ledgers by (algorithm, size) alone, so
every file it writes is stamped with the study's dataset recipe, and a
file stamped with another is refused.
Any number of handles, in threads or processes, may put into one file:
each put merges under the file lock, so the file ends holding the union.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import sys
import threading

import pytest

from repro.core import StudyConfig, SweepEngine, profiles
from repro.core.profiles import ProfileCache, run_algorithm_ledger, run_algorithm_ledger_shard
from repro.obs.metrics import MetricsRegistry
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


def _stamped(path, recipe):
    """A one-ledger cache file stamped with ``recipe``, as a study of
    another dataset would have written it."""
    path.write_text(json.dumps({
        "format": ProfileCache.FORMAT,
        "version": ProfileCache.VERSION,
        "recipe": recipe,
        "entries": {"threshold/12": {"flops": 1.0}},
    }))
    return path


STUDY_RECIPE = {"dataset_kind": "blobs", "seed": 7}


class TestProfileCacheRecipe:
    def test_put_records_the_bound_recipe(self, tmp_path):
        path = tmp_path / "profiles.json"
        ProfileCache(path).put("threshold", 12, {"flops": 1.0})
        doc = json.loads(path.read_text())
        assert doc["recipe"] == STUDY_RECIPE

    def test_a_cold_sweep_stamps_its_ledger_file(self, tmp_path):
        """Ledger files already on disk hold this stamp; a study that
        wrote another would refuse every one of them."""
        path = tmp_path / "C.json"
        engine = SweepEngine(n_cycles=2, workers=0, profile_cache=path, metrics=MetricsRegistry())
        engine.run(StudyConfig(name="one", algorithms=("threshold",), sizes=(8,)))
        assert engine.stats.profile_jobs_run == 1
        assert json.loads(path.read_text())["recipe"] == STUDY_RECIPE

    def test_other_recipe_rejected_naming_both(self, tmp_path):
        for recipe in ({"dataset_kind": "blobs", "seed": 8}, {"dataset_kind": "sphere", "seed": 7}, "blobs"):
            path = _stamped(tmp_path / "profiles.json", recipe)
            before = path.read_bytes()
            named = re.escape(
                f"profile cache {path} holds ledgers of the dataset recipe {recipe}, "
                f"not the study's {STUDY_RECIPE}"
            )
            with pytest.raises(ValueError, match=named):
                ProfileCache(path)
            with pytest.raises(ValueError, match=named):
                SweepEngine(workers=0, profile_cache=path)
            assert path.read_bytes() == before

    def test_file_without_recipe_adopted_then_stamped_on_put(self, tmp_path):
        """Older caches carry no recipe: opening one writes nothing (a
        warm run stays read-only); the next put stamps the study's."""
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps({
            "format": ProfileCache.FORMAT,
            "version": ProfileCache.VERSION,
            "entries": {"threshold/12": {"flops": 1.0}},
        }))
        before = path.read_text()
        cache = ProfileCache(path)
        SweepEngine(workers=0, profile_cache=cache)
        assert path.read_text() == before
        assert cache.get("threshold", 12) == {"flops": 1.0}
        cache.put("clip", 12, {"flops": 2.0})
        assert json.loads(path.read_text())["recipe"] == STUDY_RECIPE


class TestProfileCacheDrain:
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


def _put_disjoint(path, barrier, first):
    """Child body: open a handle, wait for the other child, put 16 keys."""
    cache = ProfileCache(path)
    barrier.wait(timeout=60)
    for size in range(first, first + 16):
        cache.put("threshold", size, {"flops": float(size)})


def _exit_in_place_of_replace(src, dst):
    os._exit(3)


def _put_then_die(path):
    """Child body: put one key, then die where the second put would
    publish its temp file."""
    cache = ProfileCache(path)
    cache.put("threshold", 12, {"flops": 1.0})
    os.replace = _exit_in_place_of_replace
    cache.put("clip", 12, {"flops": 2.0})


class TestOneFileManyHandles:
    def test_two_processes_keep_the_union(self, tmp_path):
        path = tmp_path / "profiles.json"
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        children = [ctx.Process(target=_put_disjoint, args=(path, barrier, first)) for first in (1, 17)]
        for child in children:
            child.start()
        for child in children:
            child.join(timeout=120)
        assert [child.exitcode for child in children] == [0, 0]
        on_disk = json.loads(path.read_text())["entries"]
        assert sorted(on_disk) == sorted(f"threshold/{size}" for size in range(1, 33))
        assert on_disk["threshold/32"] == {"flops": 32.0}

    def test_threads_with_a_handle_each_keep_the_union(self, tmp_path):
        path = tmp_path / "profiles.json"
        n_threads, n_puts = 8, 4
        handles = [ProfileCache(path) for _ in range(n_threads)]
        barrier = threading.Barrier(n_threads, timeout=60)

        def writer(t):
            barrier.wait()
            for i in range(n_puts):
                handles[t].put(f"alg{t}", i + 1, {"flops": float(t * n_puts + i)})

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
        assert len(json.loads(path.read_text())["entries"]) == n_threads * n_puts
        assert ProfileCache(path).get("alg7", 4) == {"flops": 31.0}

    def test_get_returns_while_a_put_writes(self, tmp_path, monkeypatch):
        path = tmp_path / "profiles.json"
        cache = ProfileCache(path)
        cache.put("threshold", 12, {"flops": 1.0})
        real = profiles.atomic_write_json
        in_write, release = threading.Event(), threading.Event()

        def held_write(target, doc, **kwargs):
            in_write.set()
            release.wait(timeout=30)
            real(target, doc, **kwargs)

        monkeypatch.setattr(profiles, "atomic_write_json", held_write)
        writer = threading.Thread(target=cache.put, args=("clip", 12, {"flops": 2.0}))
        writer.start()
        seen = []
        try:
            assert in_write.wait(timeout=30)
            reader = threading.Thread(
                target=lambda: seen.append((cache.get("threshold", 12), len(list(cache.entries()))))
            )
            reader.start()
            reader.join(timeout=10)
            assert not reader.is_alive()
        finally:
            release.set()
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert seen == [({"flops": 1.0}, 2)]
        assert sorted(json.loads(path.read_text())["entries"]) == ["clip/12", "threshold/12"]

    def test_put_refuses_a_file_another_recipe_stamped(self, tmp_path):
        path = tmp_path / "profiles.json"
        first = ProfileCache(path)
        _stamped(path, {"dataset_kind": "sphere", "seed": 7})
        before = path.read_bytes()
        with pytest.raises(ValueError, match=r"holds ledgers of the dataset recipe \{'dataset_kind': 'sphere'.*not the study's \{'dataset_kind': 'blobs'"):
            first.put("clip", 12, {"flops": 2.0})
        assert path.read_bytes() == before

    def test_a_put_removes_the_temp_file_a_killed_writer_left(self, tmp_path):
        path = tmp_path / "profiles.json"
        survivor = ProfileCache(path)
        decoys = ["profiles.json.corrupt", "profiles.json.short.tmp", "other.json.abcdefgh.tmp"]
        for name in decoys:
            (tmp_path / name).write_text("keep")
        child = multiprocessing.get_context("spawn").Process(target=_put_then_die, args=(path,))
        child.start()
        child.join(timeout=120)
        assert child.exitcode == 3
        assert len([p for p in tmp_path.glob("*.tmp") if p.name not in decoys]) == 1
        survivor.put("contour", 12, {"flops": 3.0})
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(decoys + ["profiles.json"])
        assert sorted(json.loads(path.read_text())["entries"]) == ["contour/12", "threshold/12"]


@pytest.mark.parametrize(
    "doc",
    [
        {"format": ProfileCache.FORMAT, "version": ProfileCache.VERSION},
        [{"format": ProfileCache.FORMAT}],
        {"format": ProfileCache.FORMAT, "version": ProfileCache.VERSION, "entries": {"threshold/12": 1.0}},
    ],
    ids=["no-entries", "json-list", "entry-not-an-object"],
)
def test_malformed_file_raises_naming_it(tmp_path, doc):
    path = tmp_path / "profiles.json"
    cache = ProfileCache(path)
    path.write_text(json.dumps(doc))
    before = path.read_bytes()
    with pytest.raises(ValueError, match=re.escape(str(path))):
        ProfileCache(path)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        cache.put("clip", 12, {"flops": 1.0})
    assert path.read_bytes() == before
