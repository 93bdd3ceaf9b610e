"""Figs. 4–6 — IPC versus power cap, one line per dataset size.

The paper's three categories:

* Fig. 4 (rising): slice, contour, isovolume, threshold, clip — IPC
  increases with dataset size.
* Fig. 5 (falling): volume rendering — IPC decreases as the dataset
  outgrows the LLC.
* Fig. 6 (flat): particle advection and ray tracing — work is fixed by
  seeds/steps or scales sub-linearly (surface ~N²), so IPC barely moves.
"""

import pytest

from repro.core import ipc_by_size_series
from repro.core.study import effective_sizes

RISING = ("slice", "contour", "isovolume", "threshold", "clip")
FALLING = ("volume",)
FLAT = ("advection", "raytrace")


def _ipc_at_tdp(series):
    """{size: IPC at the 120 W point} for one algorithm."""
    return {size: s.y[-1] for size, s in series.items()}


def bench_fig456_ipc_by_size(benchmark, phase3_result):
    sizes = effective_sizes()
    if len(sizes) < 3:
        pytest.skip("need at least three dataset sizes for the trend")

    all_series = benchmark.pedantic(
        lambda: {
            alg: ipc_by_size_series(phase3_result, algorithm=alg)
            for alg in RISING + FALLING + FLAT
        },
        rounds=1,
        iterations=1,
    )

    print("\n--- Figs 4-6: IPC at 120W by dataset size ---")
    print(f"{'alg':>10s} " + " ".join(f"{s:>7d}" for s in sizes))
    for alg, series in all_series.items():
        vals = _ipc_at_tdp(series)
        print(f"{alg:>10s} " + " ".join(f"{vals[s]:7.2f}" for s in sizes))

    # Fig. 4: IPC rises monotonically with size for the first category.
    for alg in RISING:
        vals = [_ipc_at_tdp(all_series[alg])[s] for s in sizes]
        assert all(b > a for a, b in zip(vals, vals[1:])), f"{alg}: {vals}"

    # Fig. 5: volume rendering falls from the smallest to the largest
    # size (the LLC-capacity effect).
    v = [_ipc_at_tdp(all_series["volume"])[s] for s in sizes]
    assert v[-1] < v[0], f"volume: {v}"

    # Fig. 6: advection and ray tracing stay within a narrow band.
    for alg in FLAT:
        vals = [_ipc_at_tdp(all_series[alg])[s] for s in sizes]
        assert max(vals) / min(vals) < 1.45, f"{alg}: {vals}"

    # Cross-category: at every size the compute-bound pair leads.
    for s in sizes:
        rising_max = max(_ipc_at_tdp(all_series[a])[s] for a in RISING)
        assert _ipc_at_tdp(all_series["advection"])[s] > rising_max

    benchmark.extra_info["ipc_by_size"] = {
        alg: {s: round(v, 2) for s, v in _ipc_at_tdp(series).items()}
        for alg, series in all_series.items()
    }
