"""Table I — Phase 1: contour at 128³ under the nine power caps.

Regenerates the paper's Table I rows (P, Pratio, T, Tratio, F, Fratio)
and asserts its qualitative claims: the execution time holds flat until
a deep cap, and the slowdown never reaches the power reduction
(``Tratio < Pratio``).
"""

import pytest

from repro import api
from repro.core import first_slowdown_cap, render_table1
from repro.core.study import effective_sizes


def _table1_size() -> int:
    return effective_sizes((128,))[0]


def bench_table1_contour_sweep(benchmark, engine):
    size = _table1_size()
    config = api.resolve_config("table1")
    result = benchmark.pedantic(engine.run, (config,), rounds=1, iterations=1)
    print()
    print(render_table1(result, algorithm="contour", size=size))

    pts = sorted(result.select(algorithm="contour", size=size), key=lambda p: -p.cap_w)
    base = pts[0]

    # Paper: at 120 W the contour runs at the all-core turbo frequency.
    assert base.freq_ghz == pytest.approx(engine.processor.spec.f_turbo)

    # Paper: "the execution time remains unaffected until an extreme
    # power cap" — no significant slowdown above 60 W.
    red = first_slowdown_cap([(p.cap_w, p.tratio) for p in pts])
    assert red is not None and red <= 60.0

    # Paper: the slowdown never reaches the reduction in power
    # (the contour is "sufficiently data intensive").
    for p in pts:
        assert p.tratio < p.pratio or p.pratio == 1.0

    # Paper: at 40 W both T and F degrade, and roughly together.
    p40 = pts[-1]
    assert p40.tratio > 1.1
    assert abs(p40.tratio - p40.fratio) < 0.4

    benchmark.extra_info["first_slowdown_cap_w"] = red
    benchmark.extra_info["tratio_40w"] = round(p40.tratio, 3)
    benchmark.extra_info["fratio_40w"] = round(p40.fratio, 3)
