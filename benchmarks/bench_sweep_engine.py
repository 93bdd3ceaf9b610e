"""Sweep engine: resume throughput, warm pricing and parallel/serial equivalence.

Three properties worth tracking as the grids grow:

* a warm resume (every point already in the store) must stay orders of
  magnitude faster than recomputing the sweep — it is the path every
  regenerated table and figure takes after the first run;
* a warm pass (every ledger cached, nothing stored) prices, validates
  and stores each point — the path every served job takes — and its
  points must equal the scalar ``Processor.run`` oracle's bitwise;
* the parallel engine must keep producing bitwise-identical points to
  the serial engine, or cached results silently diverge between hosts.
"""

import itertools

import pytest

from repro import api
from repro.core import StudyConfig, SweepEngine
from repro.core.profiles import ProfileCache, profile_from_ledger
from repro.core.runner import make_run_point
from repro.core.study import ALGORITHM_NAMES, effective_sizes
from repro.machine.simulator import Processor


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


def bench_sweep_engine_warm_pass(benchmark, tmp_path_factory):
    cfg = StudyConfig(name="warm", algorithms=ALGORITHM_NAMES, sizes=effective_sizes((32,)))
    cache = ProfileCache(None)
    SweepEngine(n_cycles=8, workers=0, profile_cache=cache).run(cfg)  # fill the ledgers once
    stores = tmp_path_factory.mktemp("warm")
    passes = itertools.count()

    def warm_pass():
        store = stores / f"pass-{next(passes)}.jsonl"
        return SweepEngine(n_cycles=8, workers=0, profile_cache=cache, store=store).run(cfg)

    result = benchmark(warm_pass)
    processor = Processor()
    default = cfg.default_cap_w
    expected = []
    for alg in cfg.algorithms:
        for size in cfg.sizes:
            profile = profile_from_ledger(alg, size, cache.get(alg, size), n_cycles=8)
            base = processor.run(profile, default)
            expected.extend(
                make_run_point(alg, size, cap, processor.run(profile, cap), base, default)
                for cap in cfg.caps_w
            )
    assert [p.to_dict() for p in result.points] == [p.to_dict() for p in expected]


def bench_sweep_engine_parallel_matches_serial(benchmark):
    cfg = _config()
    serial = SweepEngine(n_cycles=8, workers=0).run(cfg)

    def parallel():
        return SweepEngine(n_cycles=8, workers=2).run(cfg)

    result = benchmark.pedantic(parallel, rounds=1, iterations=1)
    assert len(result.points) == cfg.n_configurations
    for a, b in zip(serial.points, result.points):
        assert a.to_dict() == b.to_dict()
