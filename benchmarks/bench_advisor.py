"""Advisor throughput benchmark: warm vs cold pricing queries per second.

Times the hot path behind ``repro advise``: batch-repricing the full
8-algorithm × {32, 64, 128}³ × 9-cap grid (216 queries) through
:class:`repro.core.advisor.PowerAdvisor`.  Three phases are recorded
into ``BENCH_advisor.json``:

* **profile fill** — executing the real algorithms once to record their
  op-count ledgers (the one-time cost the cache amortizes away);
* **cold** — a fresh advisor process against a warm ledger cache: table
  construction plus repricing (the serve-loop restart cost);
* **warm** — repricing with built tables, the steady-state rate held to
  the ≥ 10,000 queries/sec floor.

Every run also re-verifies the golden-ledger guard: one repriced group
per size is compared bitwise against the engine's per-point path
(``Processor.run`` + ``make_run_point``) before any number is recorded.

Standalone (updates ``BENCH_advisor.json`` at the repo root)::

    python benchmarks/bench_advisor.py --sizes 32 64 128 --repeats 5

Under pytest the same suite runs once at a smoke size (capped by
``REPRO_MAX_SIZE``) into a temp file; the throughput floor is enforced
only for the full grid.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.core.advisor import PowerAdvisor
from repro.core.profiles import DEFAULT_CACHE_PATH, ProfileCache, profile_from_ledger
from repro.core.runner import DEFAULT_VIZ_CYCLES, make_run_point
from repro.core.study import ALGORITHM_NAMES, POWER_CAPS_W, effective_sizes
from repro.machine.simulator import Processor
from repro.obs.durable import atomic_write_json

BENCH_FORMAT = "repro-bench-advisor"
BENCH_VERSION = 1

DEFAULT_BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_advisor.json"

#: The acceptance grid: every algorithm, three sizes, every paper cap.
GRID_SIZES: tuple[int, ...] = (32, 64, 128)

#: Steady-state floor for warm-cache batch repricing of the full grid.
FLOOR_WARM_QPS = 10_000.0


def verify_bitwise(advisor: PowerAdvisor, sizes: list[int]) -> None:
    """Golden-ledger guard: repriced points == engine per-point path.

    One (algorithm, size) group per size is executed through
    ``Processor.run`` + ``make_run_point`` and compared field-for-field
    (frozen float dataclasses: equality is bitwise).  Raises
    ``AssertionError`` on any divergence — a bench that records
    throughput for wrong answers is worse than no bench.
    """
    processor = Processor(advisor.spec)
    caps = list(advisor.caps_w)
    default_cap = max(caps)
    for i, size in enumerate(sizes):
        algorithm = ALGORITHM_NAMES[i % len(ALGORITHM_NAMES)]
        ledger, _ = advisor.ledger_for(algorithm, size)
        profile = profile_from_ledger(
            algorithm, size, ledger, n_cycles=advisor.repricer.n_cycles
        )
        base = processor.run(profile, default_cap)
        expected = [
            make_run_point(
                algorithm,
                size,
                cap,
                base if cap == default_cap else processor.run(profile, cap),
                base,
                default_cap,
            )
            for cap in caps
        ]
        got = advisor.repricer.reprice(algorithm, size, ledger, caps)
        for e, g in zip(expected, got):
            assert e == g, (
                f"repriced point diverges from engine path: "
                f"{algorithm}@{size}^3 {e.cap_w:g}W\n  engine: {e.to_dict()}\n"
                f"  repriced: {g.to_dict()}"
            )


def run_suite(
    sizes: list[int],
    *,
    repeats: int = 5,
    n_cycles: int = DEFAULT_VIZ_CYCLES,
    cache_path: str | Path | None = DEFAULT_CACHE_PATH,
    path: str | Path = DEFAULT_BENCH_PATH,
    save: bool = True,
    verify: bool = True,
) -> dict:
    """Measure fill/cold/warm advisor throughput; record and return the doc."""
    sizes = sorted(set(int(s) for s in sizes))
    cache = ProfileCache(cache_path)
    advisor = PowerAdvisor(cache=cache, n_cycles=n_cycles)
    n_queries = len(ALGORITHM_NAMES) * len(sizes) * len(POWER_CAPS_W)

    t0 = time.perf_counter()
    filled = advisor.warm(ALGORITHM_NAMES, sizes)
    fill_s = time.perf_counter() - t0
    print(f"profile fill: {filled} ledgers executed in {fill_s:.2f}s "
          f"({len(ALGORITHM_NAMES) * len(sizes) - filled} already cached)")

    if verify:
        verify_bitwise(advisor, sizes)
        print(f"golden-ledger guard: {len(sizes)} groups bitwise identical to the engine path")

    # Cold: a fresh advisor (empty pricing tables) over the warm ledger
    # cache — what a restarted serve loop pays on its first grid.
    cold_advisor = PowerAdvisor(cache=cache, n_cycles=n_cycles)
    t0 = time.perf_counter()
    cold_points = cold_advisor.reprice_grid(ALGORITHM_NAMES, sizes)
    cold_s = time.perf_counter() - t0
    assert len(cold_points) == n_queries
    cold_qps = n_queries / cold_s
    print(f"cold (tables rebuilt): {n_queries} queries in {cold_s * 1e3:.1f} ms "
          f"= {cold_qps:,.0f} q/s")

    # Warm: steady state — tables built, ledgers cached.  Best of
    # ``repeats`` passes, the same convention as the kernel bench.
    advisor.reprice_grid(ALGORITHM_NAMES, sizes)  # build tables untimed
    best_s = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        points = advisor.reprice_grid(ALGORITHM_NAMES, sizes)
        best_s = min(best_s, time.perf_counter() - t0)
    assert len(points) == n_queries
    warm_qps = n_queries / best_s
    print(f"warm (steady state): {n_queries} queries in {best_s * 1e3:.1f} ms "
          f"= {warm_qps:,.0f} q/s (best of {repeats})")

    full_grid = sizes == sorted(GRID_SIZES)
    doc = {
        "format": BENCH_FORMAT,
        "version": BENCH_VERSION,
        "grid": {
            "algorithms": list(ALGORITHM_NAMES),
            "sizes": sizes,
            "caps_w": list(POWER_CAPS_W),
            "n_queries": n_queries,
        },
        "n_cycles": int(n_cycles),
        "profile_fill": {"executed": int(filled), "seconds": fill_s},
        "cold": {"seconds": cold_s, "queries_per_s": cold_qps},
        "warm": {"best_s": best_s, "repeats": int(max(1, repeats)), "queries_per_s": warm_qps},
        "floors": {"warm_queries_per_s": FLOOR_WARM_QPS if full_grid else None},
        "verified_bitwise": bool(verify),
    }
    if save:
        atomic_write_json(path, doc, indent=1)
        print(f"recorded -> {path}")
    return doc


def check_floors(doc: dict) -> list[str]:
    """Failure messages for any throughput below its recorded floor."""
    failures = []
    floor = doc.get("floors", {}).get("warm_queries_per_s")
    if floor is not None and doc["warm"]["queries_per_s"] < floor:
        failures.append(
            f"warm repricing: {doc['warm']['queries_per_s']:,.0f} q/s "
            f"< {floor:,.0f} q/s floor"
        )
    return failures


# --------------------------------------------------------------------- pytest
def bench_advisor_smoke(tmp_path):
    """One fill + cold + warm pass at a smoke size, bitwise guard included."""
    size = effective_sizes((32,))[0]
    doc = run_suite(
        [size],
        repeats=2,
        cache_path=tmp_path / "ledgers.json",
        path=tmp_path / "BENCH_advisor.json",
        verify=True,
    )
    assert doc["verified_bitwise"]
    assert doc["warm"]["queries_per_s"] > 0
    assert doc["cold"]["queries_per_s"] > 0
    assert (tmp_path / "BENCH_advisor.json").exists()


# ----------------------------------------------------------------------- main
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(GRID_SIZES),
                        help="dataset sizes (cells per axis) to price")
    parser.add_argument("--repeats", type=int, default=5,
                        help="warm grid passes (best is recorded)")
    parser.add_argument("--cycles", type=int, default=DEFAULT_VIZ_CYCLES,
                        help="visualization cycles per measurement")
    parser.add_argument("--path", default=str(DEFAULT_BENCH_PATH),
                        help="benchmark document to write")
    parser.add_argument("--cache", default=DEFAULT_CACHE_PATH,
                        help="ledger cache path, the one sweep and advise use "
                        "('' for in-memory)")
    parser.add_argument("--no-check", action="store_true",
                        help="skip the throughput-floor regression check")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the bitwise golden-ledger guard")
    args = parser.parse_args(argv)

    sizes = effective_sizes(tuple(args.sizes))
    doc = run_suite(
        list(sizes),
        repeats=args.repeats,
        n_cycles=args.cycles,
        cache_path=args.cache or None,
        path=args.path,
        verify=not args.no_verify,
    )
    if not args.no_check:
        failures = check_floors(doc)
        for msg in failures:
            print("REGRESSION:", msg, file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
