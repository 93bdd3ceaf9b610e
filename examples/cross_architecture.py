"""Cross-architecture comparison — the paper's §VIII future work, live.

Prices the same measured visualization workloads on three cap-capable
sockets and prints, for each, where the first significant slowdown
lands as a fraction of that socket's TDP — showing how far the paper's
Broadwell findings transfer.

Run:  python examples/cross_architecture.py
"""

from repro.core import PowerAdvisor, ProfileCache, StudyConfig, SweepEngine, first_slowdown_cap
from repro.core.study import ALGORITHM_NAMES
from repro.machine import ALL_PRESETS


def main() -> None:
    size = 48
    print(f"extracting workloads once at {size}^3...")
    # One ledger cache shared by every socket's engine: each algorithm
    # runs once, then every socket reprices the same ledgers.
    ledgers = ProfileCache()
    PowerAdvisor(cache=ledgers).warm(ALGORITHM_NAMES, (size,))

    print(f"\n{'':>10s} " + " ".join(f"{n:>12s}" for n in ALL_PRESETS))
    header = " ".join(
        f"{f'{int(s.tdp_watts)}W TDP':>12s}" for s in ALL_PRESETS.values()
    )
    print(f"{'socket':>10s} {header}")

    rows = {alg: [] for alg in ALGORITHM_NAMES}
    for name, spec in ALL_PRESETS.items():
        engine = SweepEngine(spec, workers=0, profile_cache=ledgers)
        caps = tuple(
            float(w) for w in range(int(spec.tdp_watts), int(spec.rapl_floor_watts) - 1, -10)
        )
        cfg = StudyConfig(name=name, algorithms=ALGORITHM_NAMES, sizes=(size,), caps_w=caps)
        result = engine.run(cfg)
        for alg in ALGORITHM_NAMES:
            pts = result.select(algorithm=alg, size=size)
            red = first_slowdown_cap([(p.cap_w, p.tratio) for p in pts])
            frac = (red or spec.rapl_floor_watts) / spec.tdp_watts
            rows[alg].append(frac)

    for alg in ALGORITHM_NAMES:
        print(f"{alg:>10s} " + " ".join(f"{f:>11.0%} " for f in rows[alg]))

    print(
        "\nReading: smaller = deeper free-cap region.  The two-class structure"
        "\ntransfers (advection/volume throttle first everywhere), but the"
        "\nlow-power manycore's narrow DVFS range compresses the spread — on"
        "\nsuch parts power capping barely differentiates visualization"
        "\nalgorithms, which is itself an §VIII-style finding."
    )


if __name__ == "__main__":
    main()
