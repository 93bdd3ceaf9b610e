"""Fig. 2 — effective frequency (a), IPC (b), LLC miss rate (c) versus
power cap for all eight algorithms at 128³.

Prints the three series grids and asserts their shapes: every algorithm
starts at turbo, the power-sensitive pair tops the IPC chart (above the
paper's IPC≈1 compute/memory divide), and the LLC miss-rate ordering is
the inverse of IPC (isovolume highest, the renderers lowest).
"""

import pytest

from repro.core import figure2_series
from repro.core.study import effective_sizes


def _print_series(title, series, fmt="{:6.2f}"):
    print(f"\n--- {title} ---")
    caps = None
    for alg, s in series.items():
        if caps is None:
            caps = s.x
            print(f"{'cap(W)':>10s} " + " ".join(f"{c:6.0f}" for c in caps))
        print(f"{alg:>10s} " + " ".join(fmt.format(v) for v in s.y))


def bench_fig2_counters(benchmark, engine, phase2_result):
    size = effective_sizes((128,))[0]
    fig = benchmark.pedantic(
        lambda: figure2_series(phase2_result, size=size), rounds=3, iterations=1
    )

    _print_series("Fig 2a: effective frequency (GHz)", fig["frequency"])
    _print_series("Fig 2b: IPC", fig["ipc"])
    _print_series("Fig 2c: LLC miss rate", fig["llc_miss_rate"])

    spec = engine.processor.spec

    # (a) Everyone runs at the all-core turbo at 120 W (paper: "all
    # algorithms ... run at the same frequency of 2.6 GHz at a 120 W cap").
    for s in fig["frequency"].values():
        assert s.y[-1] == pytest.approx(spec.f_turbo)
        # And frequency never increases as the cap tightens.
        assert all(b >= a - 1e-9 for a, b in zip(s.y, s.y[1:]))

    # (b) IPC divide: the compute-bound pair sits above 1, the
    # cell-centered data-bound group below ~1.3.
    ipc_at_tdp = {alg: s.y[-1] for alg, s in fig["ipc"].items()}
    assert ipc_at_tdp["advection"] > 1.8
    assert ipc_at_tdp["volume"] > 1.8
    for alg in ("contour", "threshold", "clip"):
        assert ipc_at_tdp[alg] < 1.0
    assert ipc_at_tdp["threshold"] == min(ipc_at_tdp.values())

    # (b) Compute-bound IPC collapses under deep caps (biggest change),
    # because the denominator (reference cycles) keeps ticking.
    drop = {alg: s.y[-1] - s.y[0] for alg, s in fig["ipc"].items()}
    assert drop["advection"] >= max(drop[a] for a in ("contour", "threshold", "slice"))

    # (c) Miss-rate ordering is the inverse of IPC: isovolume tops the
    # chart; the renderers' working sets fit on chip.
    miss_at_tdp = {alg: s.y[-1] for alg, s in fig["llc_miss_rate"].items()}
    assert miss_at_tdp["isovolume"] == max(miss_at_tdp.values())
    assert miss_at_tdp["volume"] < 0.1
    assert miss_at_tdp["advection"] < 0.15

    benchmark.extra_info["ipc_at_tdp"] = {k: round(v, 2) for k, v in ipc_at_tdp.items()}
    benchmark.extra_info["miss_rate_at_tdp"] = {k: round(v, 2) for k, v in miss_at_tdp.items()}
