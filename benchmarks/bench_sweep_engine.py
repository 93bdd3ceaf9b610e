"""Sweep engine: resume throughput and parallel/serial equivalence.

Two properties worth tracking as the grids grow:

* a warm resume (every point already in the store) must stay orders of
  magnitude faster than recomputing the sweep — it is the path every
  regenerated table and figure takes after the first run;
* the parallel engine must keep producing bitwise-identical points to
  the serial engine, or cached results silently diverge between hosts.
"""

import pytest

from repro import api
from repro.core import StudyConfig, SweepEngine
from repro.core.study import effective_sizes


def _config() -> StudyConfig:
    size = effective_sizes((64,))[0]
    return StudyConfig(name="bench", algorithms=("contour", "threshold", "clip"), sizes=(size,))


def bench_sweep_engine_warm_resume(benchmark, tmp_path_factory):
    cfg = _config()
    store = tmp_path_factory.mktemp("store") / "bench.jsonl"
    engine = api.sweep_engine(store=store, n_cycles=8)
    cold = engine.run(cfg)

    def warm():
        e = api.sweep_engine(store=store, n_cycles=8)
        return e.run(cfg)

    result = benchmark(warm)
    assert [p.to_dict() for p in result.points] == [p.to_dict() for p in cold.points]


def bench_sweep_engine_parallel_matches_serial(benchmark):
    cfg = _config()
    serial = SweepEngine(n_cycles=8, workers=0).run(cfg)

    def parallel():
        return SweepEngine(n_cycles=8, workers=2).run(cfg)

    result = benchmark.pedantic(parallel, rounds=1, iterations=1)
    assert len(result.points) == cfg.n_configurations
    for a, b in zip(serial.points, result.points):
        assert a.to_dict() == b.to_dict()
