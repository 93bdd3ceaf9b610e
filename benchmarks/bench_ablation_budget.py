"""Ablation A2 — the power-budget runtime (§VII's use case).

Compares the naive uniform node-budget split against the
advisor-informed split (deep-cap the visualization, boost the
simulation) across node budgets and visualization pipelines, and prints
the makespan improvements.  The paper's claim: informed allocation
"may result in better overall performance"; with a data-bound
visualization the advisor should never lose and should win clearly at
tight budgets.
"""

from repro.cloverleaf import step_profile
from repro.core.study import effective_sizes
from repro.insitu import advisor_allocation, uniform_allocation
from repro.workload import WorkProfile


def _scaled(profile, factor):
    out = WorkProfile(name=profile.name, n_elements=profile.n_elements)
    out.segments = [s.scaled(factor) for s in profile.segments]
    return out


def bench_ablation_budget(benchmark, engine):
    size = min(effective_sizes((128,))[0], 128)
    proc = engine.processor
    # Paper-like composition: the simulation dominates; visualization is
    # a 10-20% tail (10 of the study's 87 cycles).
    sim = step_profile(size**3, 2500)

    def sweep():
        rows = []
        for viz_alg in ("contour", "volume"):
            viz = _scaled(engine.profile_for(viz_alg, size), 10.0 / 87.0)
            for budget in (100.0, 140.0, 180.0):
                uni = uniform_allocation(proc, sim, viz, budget)
                adv = advisor_allocation(proc, sim, viz, budget)
                rows.append((viz_alg, budget, uni, adv))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print("\n--- A2: uniform vs advisor node-budget split ---")
    print(f"{'viz':>9s} {'budget':>7s} {'uniform(s)':>11s} {'advisor(s)':>11s} "
          f"{'speedup':>8s} {'viz cap':>8s} {'sim cap':>8s}")
    for viz_alg, budget, uni, adv in rows:
        speedup = uni.makespan_s / adv.makespan_s
        print(f"{viz_alg:>9s} {budget:6.0f}W {uni.makespan_s:11.3f} {adv.makespan_s:11.3f} "
              f"{speedup:7.2f}x {adv.viz_cap_w:7.0f}W {adv.sim_cap_w:7.0f}W")

    # The advisor (with its uniform fallback) never loses, for either
    # visualization class.
    for _, budget, uni, adv in rows:
        assert adv.makespan_s <= uni.makespan_s * 1.001

    # With a data-bound visualization it wins clearly at the middle
    # budget: the visualization does not need its half.
    contour_rows = [r for r in rows if r[0] == "contour"]
    mid = contour_rows[1]
    assert mid[3].makespan_s < mid[2].makespan_s * 0.95

    # The advisor grants the power-opportunity visualization a deeper
    # cap than the power-sensitive one (at the budget where both skew).
    adv_contour = contour_rows[1][3]
    adv_volume = [r for r in rows if r[0] == "volume"][1][3]
    assert adv_contour.viz_cap_w <= adv_volume.viz_cap_w
