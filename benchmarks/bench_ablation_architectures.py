"""Ablation A4 — cross-architecture power capping (the paper's §VIII
future work: "explore how the power and performance tradeoffs ...
compare across other architectures that provide power capping").

Prices the same measured work profiles on three cap-capable sockets
(the study's Broadwell, a Skylake-SP-like part, and a low-power
manycore) and compares where each algorithm's first slowdown lands.
"""

from repro.core import SweepEngine, classify_result
from repro.core.study import ALGORITHM_NAMES, StudyConfig, effective_sizes
from repro.machine import ALL_PRESETS


def bench_ablation_architectures(benchmark, engine, study_profile):
    size = effective_sizes((128,))[0]
    # Warm the shared engine's ledger cache.
    for alg in ALGORITHM_NAMES:
        study_profile(alg, size)

    def sweep():
        out = {}
        for name, spec in ALL_PRESETS.items():
            # Ledgers do not depend on the machine: every socket prices
            # the shared engine's cached ledgers.
            priced = SweepEngine(spec, workers=0, profile_cache=engine.profile_cache)
            caps = tuple(
                float(w)
                for w in range(int(spec.tdp_watts), int(spec.rapl_floor_watts) - 1, -10)
            )
            cfg = StudyConfig(
                name=f"arch-{name}", algorithms=ALGORITHM_NAMES, sizes=(size,), caps_w=caps
            )
            out[name] = (spec, priced.run(cfg))
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print("\n--- A4: first-slowdown cap as a fraction of TDP, per architecture ---")
    print(f"{'alg':>10s} " + " ".join(f"{n:>10s}" for n in results))
    fractions = {}
    for name, (spec, result) in results.items():
        classes = classify_result(result, size=size, sensitive_cap_w=0.58 * spec.tdp_watts)
        fractions[name] = {
            alg: (c.first_slowdown_cap_w or spec.rapl_floor_watts) / spec.tdp_watts
            for alg, c in classes.items()
        }
    for alg in ALGORITHM_NAMES:
        print(f"{alg:>10s} " + " ".join(f"{fractions[n][alg]:>9.0%} " for n in results))

    # The class *structure* transfers across architectures: the
    # compute-bound pair throttles at a larger fraction of TDP than the
    # median data-bound algorithm everywhere.
    for name in results:
        f = fractions[name]
        data_bound = sorted(f[a] for a in ("contour", "threshold", "clip", "slice"))
        assert f["advection"] >= data_bound[-1], name
        assert f["volume"] >= data_bound[1], name

    # But the architecture moves the boundary: the low-power manycore's
    # narrow DVFS range leaves less room for caps to bite than
    # Broadwell's (smaller fraction gap between classes).
    spread = {
        n: max(f.values()) - min(f.values()) for n, f in fractions.items()
    }
    assert spread["manycore"] < spread["broadwell"]

    benchmark.extra_info["first_red_fraction_of_tdp"] = {
        n: {a: round(v, 2) for a, v in f.items()} for n, f in fractions.items()
    }
