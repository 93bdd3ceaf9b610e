"""Table III — Phase 3 slice: all algorithms at 256³.

Regenerates the 256³ slowdown grid and asserts the paper's finding that
growing the dataset is a poor tradeoff for the data-bound algorithms:
their first significant slowdown moves to *higher* power caps than at
128³, while the compute-bound pair's draw (and hence throttle point)
barely moves.
"""

import pytest

from repro import api
from repro.core import classify_result, render_slowdown_table
from repro.core.study import effective_sizes


def bench_table3_large_dataset(benchmark, engine, phase2_result):
    sizes = effective_sizes((256,))
    size = sizes[0]
    if size < 256:
        pytest.skip("REPRO_MAX_SIZE excludes the 256^3 configuration")

    config = api.resolve_config("table3")
    result = benchmark.pedantic(engine.run, (config,), rounds=1, iterations=1)
    print()
    print(render_slowdown_table(result, size=256))

    small = phase2_result
    big_cls = classify_result(result, size=256)
    small_cls = classify_result(small, size=128)

    # Paper: for the data-bound algorithms the 10% slowdown appears at
    # higher caps with the larger dataset (e.g. contour 40 W -> 50 W).
    shifted = [
        alg
        for alg in ("contour", "threshold", "clip", "slice")
        if (big_cls[alg].first_slowdown_cap_w or 0) > (small_cls[alg].first_slowdown_cap_w or 0)
    ]
    assert len(shifted) >= 2, f"expected upward red-cap shifts, got {shifted}"
    assert (big_cls["contour"].first_slowdown_cap_w or 0) >= 50.0

    # Paper: the compute-bound pair's power usage does not move with
    # dataset size.
    for alg in ("advection", "volume"):
        assert big_cls[alg].natural_power_w == pytest.approx(
            small_cls[alg].natural_power_w, abs=5.0
        )
        assert big_cls[alg].first_slowdown_cap_w == small_cls[alg].first_slowdown_cap_w

    # Data-bound algorithms draw more power at 256³ (the shift's cause).
    for alg in ("contour", "threshold", "clip"):
        assert big_cls[alg].natural_power_w > small_cls[alg].natural_power_w + 3.0

    # Tratio at 40 W grows with the dataset for every data-bound
    # algorithm (Table II vs Table III).
    for alg in ("contour", "threshold", "clip", "slice"):
        t_small = [p for p in small.select(algorithm=alg, size=128) if p.cap_w == 40.0][0]
        t_big = [p for p in result.select(algorithm=alg, size=256) if p.cap_w == 40.0][0]
        assert t_big.tratio > t_small.tratio

    benchmark.extra_info["red_caps_256"] = {
        a: c.first_slowdown_cap_w for a, c in big_cls.items()
    }
