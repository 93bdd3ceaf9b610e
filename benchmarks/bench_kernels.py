"""Kernel microbenchmarks: wall-clock timings of the real extraction kernels.

Unlike the table/figure benchmarks (which re-price cached ledgers through
the machine model), these time the *actual* NumPy kernel executions —
the cost center of every sweep — and record the trajectory into
``BENCH_kernels.json`` via :class:`repro.core.benchtrack.BenchTracker`,
so each PR leaves a perf point the next one can regress against.

Standalone (updates ``BENCH_kernels.json`` at the repo root)::

    python benchmarks/bench_kernels.py --sizes 32 128 --repeats 3

Under pytest the same measurements run once per kernel at a small size
(capped by ``REPRO_MAX_SIZE``) as a smoke test; thresholds are only
enforced where a pre-optimization baseline exists for the measured size
(the 128³ contour / clip / isovolume acceptance floors).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import pytest

from repro.core.benchtrack import (
    DEFAULT_BENCH_PATH,
    SPEEDUP_FLOORS,
    BenchTracker,
    check_floors,
    format_trend,
    time_kernel,
    trend_rows,
)
from repro.core.study import effective_sizes
from repro.data.generators import make_dataset
from repro.viz import ALGORITHMS

#: Kernels timed at every requested size (the extraction layer).
EXTRACTION_KERNELS = ("contour", "threshold", "clip", "isovolume", "slice")

#: Heavier kernels timed only at the smallest requested size (their cost
#: is dominated by fixed factors: seeds x steps, rays x images).
RENDER_KERNELS = ("advection", "raytrace", "volume")

#: At the Table 3 scale (256³ and up) only the floored tentpole kernels
#: are timed — a full-suite pass would take minutes for kernels with no
#: acceptance criterion at that size.
LARGE_SIZE = 256
LARGE_KERNELS = ("contour", "clip", "isovolume")

_DATASETS: dict[int, object] = {}


def _dataset(size: int):
    if size not in _DATASETS:
        _DATASETS[size] = make_dataset(size, kind="blobs", seed=7)
    return _DATASETS[size]


def run_suite(
    sizes: list[int],
    *,
    repeats: int = 3,
    path: str | Path = DEFAULT_BENCH_PATH,
    save: bool = True,
    kernels: list[str] | None = None,
    budget_s: float | None = None,
) -> BenchTracker:
    """Time every kernel, record into the trajectory file, return it.

    ``kernels`` restricts the suite (default: all); ``budget_s`` is a
    soft wall-clock bound — once elapsed time crosses it, remaining
    (kernel, size) pairs are skipped and reported, so a time-bounded CI
    smoke can run the 256³ tier without an unbounded tail.  Sizes at or
    above :data:`LARGE_SIZE` only time the :data:`LARGE_KERNELS`.
    """
    tracker = BenchTracker(path)
    sizes = sorted(set(sizes))
    wanted = set(kernels) if kernels else set(EXTRACTION_KERNELS + RENDER_KERNELS)
    t_start = time.perf_counter()
    skipped: list[str] = []
    for kernel in EXTRACTION_KERNELS + RENDER_KERNELS:
        if kernel not in wanted:
            continue
        kernel_sizes = sizes if kernel in EXTRACTION_KERNELS else sizes[:1]
        for size in kernel_sizes:
            if size >= LARGE_SIZE and kernel not in LARGE_KERNELS:
                continue
            if budget_s is not None and time.perf_counter() - t_start > budget_s:
                skipped.append(f"{kernel}@{size}")
                continue
            ds = _dataset(size)
            filt = ALGORITHMS[kernel]()
            timing = time_kernel(lambda: filt.execute(ds), repeats=repeats)
            entry = tracker.record(
                kernel,
                size,
                timing["best_s"],
                mean_s=timing["mean_s"],
                repeats=int(timing["repeats"]),
            )
            speed = entry.get("speedup_vs_baseline")
            note = f"  ({speed:.2f}x vs baseline)" if speed else ""
            print(f"{kernel:>10s} @ {size:>3d}^3: {entry['seconds']:.3f}s{note}")
    if skipped:
        print(f"budget of {budget_s:.0f}s exhausted; skipped: {', '.join(skipped)}")
    if save:
        tracker.save()
    return tracker


# --------------------------------------------------------------------- pytest
@pytest.mark.parametrize("kernel", EXTRACTION_KERNELS + RENDER_KERNELS)
def bench_kernel_smoke(benchmark, kernel, tmp_path):
    """One real execution per kernel at a smoke size, trajectory recorded."""
    size = effective_sizes((32,))[0]
    ds = _dataset(size)
    filt = ALGORITHMS[kernel]()
    result = benchmark.pedantic(lambda: filt.execute(ds), rounds=1, iterations=1)
    assert result.counts.as_dict(), f"{kernel} recorded an empty ledger"
    tracker = BenchTracker(tmp_path / "BENCH_kernels.json")
    tracker.record(kernel, size, 0.0)
    tracker.save()
    assert tracker.get(kernel, size) is not None


# ----------------------------------------------------------------------- main
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[32, 128],
                        help="dataset sizes (cells per axis) to time")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions per kernel (min is recorded)")
    parser.add_argument("--path", default=str(DEFAULT_BENCH_PATH),
                        help="trajectory file to update")
    parser.add_argument("--kernels", nargs="+", default=None,
                        choices=EXTRACTION_KERNELS + RENDER_KERNELS,
                        help="only time these kernels (default: all)")
    parser.add_argument("--budget-s", type=float, default=None, metavar="S",
                        help="soft wall-clock budget; remaining pairs are skipped")
    parser.add_argument("--no-check", action="store_true",
                        help="skip the speedup-floor regression check")
    args = parser.parse_args(argv)

    sizes = effective_sizes(tuple(args.sizes))
    tracker = run_suite(
        list(sizes),
        repeats=args.repeats,
        path=args.path,
        kernels=args.kernels,
        budget_s=args.budget_s,
    )
    print(f"recorded {len(tracker)} entries -> {tracker.path}")
    print(format_trend(trend_rows(tracker)))
    if not args.no_check:
        failures = check_floors(tracker)
        for msg in failures:
            print("REGRESSION:", msg, file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
