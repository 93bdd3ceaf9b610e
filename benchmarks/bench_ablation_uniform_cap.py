"""Ablation A3 — the cost of uniform power capping (§III-A).

The paper argues a uniform per-socket cap wastes capacity when the
workload distribution is non-uniform: sockets with light work leave
power stranded while heavily loaded sockets throttle.  This ablation
builds a two-socket node with imbalanced visualization work and
compares a uniform cap against a demand-aware split of the same total
budget.
"""

from repro.core.study import effective_sizes


def bench_ablation_uniform_cap(benchmark, engine):
    sizes = effective_sizes((32, 128))
    small, large = sizes[0], sizes[-1]
    proc = engine.processor

    light = engine.profile_for("contour", small)   # lightly loaded socket
    heavy = engine.profile_for("volume", large)    # heavily loaded socket
    budget = 160.0

    def run():
        # Uniform: 80 W each.
        u_light = proc.run(light, budget / 2)
        u_heavy = proc.run(heavy, budget / 2)
        uniform_makespan = max(u_light.time_s, u_heavy.time_s)

        # Demand-aware: give the light socket its floor, the rest to the
        # heavy one (clamped to the RAPL range).
        floor = proc.spec.rapl_floor_watts
        d_light = proc.run(light, floor)
        d_heavy = proc.run(heavy, proc.rapl.validate_cap(budget - floor))
        demand_makespan = max(d_light.time_s, d_heavy.time_s)
        return uniform_makespan, demand_makespan, (u_heavy, d_heavy)

    uniform_makespan, demand_makespan, (u_heavy, d_heavy) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    speedup = uniform_makespan / demand_makespan
    print("\n--- A3: uniform vs demand-aware cap across sockets ---")
    print(f"uniform 80W/80W      : makespan {uniform_makespan:.3f}s "
          f"(heavy socket at {u_heavy.effective_freq_ghz:.2f} GHz)")
    print(f"demand-aware 40W/120W: makespan {demand_makespan:.3f}s "
          f"(heavy socket at {d_heavy.effective_freq_ghz:.2f} GHz)")
    print(f"speedup: {speedup:.2f}x")

    # The heavy socket is power-sensitive: releasing the stranded power
    # must speed up the node.
    assert demand_makespan < uniform_makespan
    assert d_heavy.effective_freq_ghz > u_heavy.effective_freq_ghz
    benchmark.extra_info["speedup"] = round(speedup, 3)
