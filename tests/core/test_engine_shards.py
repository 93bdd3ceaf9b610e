"""Engine shard granularity: large jobs fan out, results stay bitwise.

A pool whose grid holds fewer jobs than workers used to idle most of the
pool on a single 256³ profile.  ``SweepEngine`` now splits shard-capable
jobs at ``shard_min_size`` or larger into :class:`ShardTask` k-spans and
merges the span ledgers deterministically; these tests pin the fan-out
bookkeeping (stats, metrics, spans) and the study-level bitwise
equivalence against ``tests/golden/runpoints.json``.
"""

from __future__ import annotations

import pytest

from repro.core import ALGORITHM_NAMES, StudyConfig, SweepEngine
from repro.core.engine import ShardTask, execute_shard_task
from repro.core.profiles import (
    merge_shard_ledgers,
    run_algorithm_ledger,
    run_algorithm_ledger_shard,
    supports_sharding,
)
from repro.obs.metrics import MetricsRegistry

# One shardable algorithm and one that never shards.
CFG = StudyConfig(name="t", algorithms=("contour", "threshold"), sizes=(12,))
GOLDEN = StudyConfig(name="golden", algorithms=ALGORITHM_NAMES, sizes=(12,))


def _assert_golden(expected: list[dict], result):
    assert [p.to_dict() for p in result.points] == expected  # bitwise: raw floats


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
        task = ShardTask(algorithm="contour", size=16, shard=1, n_shards=3)
        assert execute_shard_task(task) == run_algorithm_ledger_shard(
            "contour", 16, 1, 3
        )


class TestEngineFanOut:
    def test_large_job_fans_out_and_matches_serial(self, golden_points):
        """The sharded pool reproduces the whole golden grid bitwise."""
        reg = MetricsRegistry()
        engine = SweepEngine(
            n_cycles=2,
            workers=2,
            shard_min_size=12,
            metrics=reg,
        )
        _assert_golden(golden_points(GOLDEN), engine.run(GOLDEN))

        # contour, clip and isovolume split one span per pool worker;
        # the other five algorithms ran whole.
        assert engine.stats.shard_tasks_run == 6
        assert engine.stats.profile_jobs_run == 8
        assert not engine.stats.fell_back_serial
        jobs = reg.counter("repro_profile_jobs_total", source="executed")
        shards = reg.counter("repro_profile_jobs_total", source="sharded")
        assert jobs.value == 8  # a merged group counts once
        assert shards.value == 6

    def test_single_shardable_job_still_uses_pool(self, golden_points):
        """One job used to force serial; a shardable one now fans out."""
        cfg = StudyConfig(name="t", algorithms=("clip",), sizes=(12,))
        engine = SweepEngine(
            n_cycles=2, workers=2, shard_min_size=12, metrics=MetricsRegistry()
        )
        _assert_golden(golden_points(cfg), engine.run(cfg))
        assert engine.stats.shard_tasks_run == 2  # one span per pool worker

    def test_below_min_size_runs_whole(self):
        engine = SweepEngine(
            n_cycles=2, workers=2, shard_min_size=64, metrics=MetricsRegistry()
        )
        engine.run(CFG)
        assert engine.stats.shard_tasks_run == 0
        assert engine.stats.profile_jobs_run == 2
