"""Calibration harness: compare simulated metrics against the paper's bands.

Runs each real algorithm once per size to record its op ledger (cached
in .cache/counts.json, the CLI's default ledger cache), then re-prices
profiles from the ledgers on every invocation — so edits to
repro/viz/costs.py or repro/machine/spec.py are evaluated in seconds.
Use --refresh after changing the *algorithms* themselves (anything that
alters the recorded counts).
"""
import argparse
import sys
import time
from pathlib import Path

from repro.core import DEFAULT_VIZ_CYCLES, ProfileCache, first_slowdown_cap, profile_from_ledger
from repro.core.study import ALGORITHM_NAMES
from repro.data.generators import make_dataset
from repro.machine import Processor
from repro.viz import ALGORITHMS

CACHE = Path(__file__).resolve().parent.parent / ".cache" / "counts.json"

# Paper targets at 128^3: (T_seconds~, P_watts, ipc, miss_rate, red_cap, Tr@40, Fr@40)
TARGETS_128 = {
    "contour":   (33.5, 55, 0.85, 0.25, 40, 1.17, 1.23),
    "threshold": (None, 58, 0.40, 0.35, 40, 1.31, 1.38),
    "clip":      (None, 60, 0.70, 0.30, 50, 1.48, 1.48),
    "isovolume": (None, 65, 0.60, 0.45, 60, 1.81, 2.55),
    "slice":     (None, 60, 1.20, 0.20, 40, 1.26, 1.22),
    "advection": (None, 86, 2.55, 0.05, 80, 3.12, 2.69),
    "raytrace":  (None, 70, 1.30, 0.15, 60, 1.75, 1.73),
    "volume":    (None, 85, 2.50, 0.08, 70, 1.86, 1.84),
}
TARGETS_RED_256 = {
    "contour": 50, "threshold": 60, "clip": 70, "isovolume": 60,
    "slice": 50, "advection": 80, "raytrace": 60, "volume": 70,
}


def load_counts(sizes, refresh=False):
    cache = ProfileCache(CACHE)
    for size in sizes:
        ds = None
        for alg in ALGORITHM_NAMES:
            if (alg, size) in cache and not refresh:
                continue
            if ds is None:
                ds = make_dataset(size)
            t0 = time.time()
            cache.put(alg, size, ALGORITHMS[alg]().execute(ds).counts.as_dict())
            print(f"  extracted {alg}@{size}: {time.time()-t0:.1f}s", file=sys.stderr)
    return cache


def report(counts, sizes):
    proc = Processor()
    caps = [float(w) for w in range(120, 30, -10)]
    for size in sizes:
        print(f"\n=== size {size}^3 ===")
        hdr = (f"{'alg':10s} {'T':>8s} {'P':>6s} {'ipc':>5s} {'miss':>5s} {'red':>4s}"
               f" {'Tr40':>5s} {'Fr40':>5s}   || paper   P   ipc  miss red  Tr40 Fr40")
        print(hdr)
        for alg in ALGORITHM_NAMES:
            if (alg, size) not in counts:
                continue
            prof = profile_from_ledger(
                alg, size, counts.get(alg, size), n_cycles=DEFAULT_VIZ_CYCLES
            )
            base = proc.run(prof, 120.0)
            sweep = {cap: proc.run(prof, cap) for cap in caps}
            red = first_slowdown_cap([(c, r.time_s / base.time_s) for c, r in sweep.items()])
            r40 = sweep[40.0]
            line = (f"{alg:10s} {base.time_s:8.2f} {base.avg_power_w:6.1f} "
                    f"{base.ipc:5.2f} {base.llc_miss_rate:5.2f} "
                    f"{str(int(red)) if red else '-':>4s} "
                    f"{r40.time_s/base.time_s:5.2f} "
                    f"{base.effective_freq_ghz/r40.effective_freq_ghz:5.2f}")
            t = TARGETS_128.get(alg) if size == 128 else None
            if t:
                line += f"   || {t[1]:7.0f} {t[2]:5.2f} {t[3]:5.2f} {t[4]:3d} {t[5]:5.2f} {t[6]:5.2f}"
            elif size == 256 and alg in TARGETS_RED_256:
                line += f"   || red256={TARGETS_RED_256[alg]}"
            print(line)


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", type=int, nargs="+", default=[128])
    ap.add_argument("--refresh", action="store_true")
    args = ap.parse_args()
    counts = load_counts(args.sizes, refresh=args.refresh)
    report(counts, args.sizes)
