"""Kernel microbenchmarks: wall-clock timings of the real kernels.

Unlike the table/figure benchmarks (which re-price cached ledgers through
the machine model), these time the *actual* NumPy kernel executions —
the cost center of every sweep — plus the dataset generation every
profile job runs before its kernel, and record the trajectory into
``BENCH_kernels.json`` via :class:`repro.core.benchtrack.BenchTracker`,
so each PR leaves a perf point the next one can regress against.

Standalone (updates ``BENCH_kernels.json`` at the repo root)::

    python benchmarks/bench_kernels.py --sizes 32 128 256 --repeats 3

Every requested kernel is timed at every requested size, 256³ included.
There, on a 2-core container, one call takes 2.2–2.8 s for advection
(the registry's counting path), 0.7–0.8 s for ``generate``, about 1 s
or less for ray tracing or volume rendering, and under a second for
each extraction kernel.

Under pytest the same measurements run once per kernel at a small size
(capped by ``REPRO_MAX_SIZE``) as a smoke test; thresholds are only
enforced where a pre-optimization baseline exists for the measured size
(the ``SPEEDUP_FLOORS`` of :mod:`repro.core.benchtrack`: generate,
contour, clip, isovolume and advection at 128³, and the extraction
kernels and advection at 256³).
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

#: Dataset generation, timed at every requested size as the advection
#: profile job calls it: ``make_dataset`` with energy and velocity, the
#: largest dataset any job builds (the other jobs skip velocity).
GENERATE = "generate"

#: The kernels, timed after generation at every requested size.
KERNELS = (
    "contour", "threshold", "clip", "isovolume", "slice", "advection", "raytrace", "volume",
)

ALL_KERNELS = (GENERATE,) + KERNELS

_DATASETS: dict[int, object] = {}


def _dataset(size: int):
    if size not in _DATASETS:
        _DATASETS[size] = make_dataset(size, kind="blobs", seed=7)
    return _DATASETS[size]


def _timed_call(kernel: str, size: int):
    """The zero-argument call timed for ``kernel`` at ``size``."""
    if kernel == GENERATE:
        return lambda: make_dataset(size, kind="blobs", seed=7)
    ds = _dataset(size)
    filt = ALGORITHMS[kernel]()
    return lambda: filt.execute(ds)


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

    ``kernels`` restricts the suite (default: all, generation first, so
    it runs before the kernels' cached datasets are held); ``budget_s``
    is a soft wall-clock bound — once elapsed time crosses it, remaining
    (kernel, size) pairs are skipped and reported, so a time-bounded CI
    smoke can run the 256³ tier without an unbounded tail.
    """
    tracker = BenchTracker(path)
    sizes = sorted(set(sizes))
    wanted = set(kernels) if kernels else set(ALL_KERNELS)
    t_start = time.perf_counter()
    skipped: list[str] = []
    for kernel in ALL_KERNELS:
        if kernel not in wanted:
            continue
        for size in sizes:
            if budget_s is not None and time.perf_counter() - t_start > budget_s:
                skipped.append(f"{kernel}@{size}")
                continue
            timing = time_kernel(_timed_call(kernel, size), repeats=repeats)
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
@pytest.mark.parametrize("kernel", KERNELS)
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
                        choices=ALL_KERNELS,
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
