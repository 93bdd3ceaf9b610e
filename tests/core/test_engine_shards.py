"""Engine shard granularity: large jobs fan out, results stay bitwise.

A pool whose grid holds fewer jobs than workers used to idle most of the
pool on a single 256³ profile.  ``SweepEngine`` now splits shard-capable
jobs at ``shard_min_size`` or larger into :class:`ShardTask` k-spans and
merges the span ledgers deterministically; these tests pin the fan-out
bookkeeping (stats, metrics, spans) and the study-level bitwise
equivalence against the serial engine.
"""

from __future__ import annotations

import pytest

from repro.core import ProfileJob, StudyConfig, SweepEngine
from repro.core.engine import ShardTask, execute_profile_job, execute_shard_task
from repro.core.profiles import (
    merge_shard_ledgers,
    run_algorithm_ledger,
    run_algorithm_ledger_shard,
    supports_sharding,
)
from repro.obs.metrics import MetricsRegistry

# One shardable algorithm above the lowered threshold, one below it, and
# one that never shards — exercises every _shards_for branch in one run.
CFG = StudyConfig(name="t", algorithms=("contour", "threshold"), sizes=(16,))


def _assert_identical(a, b):
    assert len(a.points) == len(b.points)
    for pa, pb in zip(a.points, b.points):
        assert pa.to_dict() == pb.to_dict()  # bitwise: dict holds raw floats


class TestShardTaskUnits:
    def test_supports_sharding_registry(self):
        assert supports_sharding("contour")
        assert supports_sharding("isovolume")
        assert not supports_sharding("threshold")
        with pytest.raises(KeyError):
            supports_sharding("nope")

    def test_shard_ledgers_merge_to_whole_job(self):
        whole = run_algorithm_ledger("clip", 16)
        parts = [run_algorithm_ledger_shard("clip", 16, s, 4) for s in range(4)]
        assert merge_shard_ledgers(parts) == whole

    def test_execute_shard_task_matches_direct_call(self):
        task = ShardTask(
            algorithm="contour", size=16, dataset_kind="blobs", seed=7, shard=1, n_shards=3
        )
        assert execute_shard_task(task) == run_algorithm_ledger_shard(
            "contour", 16, 1, 3
        )


class TestEngineFanOut:
    def test_large_job_fans_out_and_matches_serial(self, tmp_path):
        serial = SweepEngine(n_cycles=2, workers=0).run(CFG)
        reg = MetricsRegistry()
        engine = SweepEngine(
            n_cycles=2,
            workers=2,
            shard_min_size=16,
            metrics=reg,
        )
        _assert_identical(serial, engine.run(CFG))

        # contour@16 split one span per pool worker; threshold@16 ran whole.
        assert engine.stats.shard_tasks_run == 2
        assert engine.stats.profile_jobs_run == 2
        assert not engine.stats.fell_back_serial
        jobs = reg.counter("repro_profile_jobs_total", source="executed")
        shards = reg.counter("repro_profile_jobs_total", source="sharded")
        assert jobs.value == 2  # the merged group counts once
        assert shards.value == 2

    def test_single_shardable_job_still_uses_pool(self):
        """One job used to force serial; a shardable one now fans out."""
        cfg = StudyConfig(name="t", algorithms=("clip",), sizes=(16,))
        serial = SweepEngine(n_cycles=2, workers=0).run(cfg)
        engine = SweepEngine(
            n_cycles=2, workers=2, shard_min_size=16, metrics=MetricsRegistry()
        )
        _assert_identical(serial, engine.run(cfg))
        assert engine.stats.shard_tasks_run == 2  # one span per pool worker

    def test_below_min_size_runs_whole(self):
        engine = SweepEngine(
            n_cycles=2, workers=2, shard_min_size=64, metrics=MetricsRegistry()
        )
        engine.run(CFG)
        assert engine.stats.shard_tasks_run == 0
        assert engine.stats.profile_jobs_run == 2

    def test_profile_fn_override_disables_sharding(self):
        """The fault-injection hook must see whole jobs."""
        engine = SweepEngine(
            n_cycles=2,
            workers=2,
            shard_min_size=16,
            profile_fn=execute_profile_job,
        )
        job = ProfileJob(algorithm="contour", size=16, dataset_kind="blobs", seed=7)
        # Same callable object as the default keeps sharding on...
        assert engine._shards_for(job) > 1

        def wrapped(j):
            return execute_profile_job(j)

        engine._profile_fn = wrapped
        assert engine._shards_for(job) == 1
