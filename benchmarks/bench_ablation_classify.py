"""Ablation A1 — sensitivity of the classification to its thresholds.

The study classifies with "first 10% slowdown" and an implicit cap
boundary between the classes.  This ablation sweeps both knobs and
checks the two-class split is robust: the paper's grouping should hold
for a band of thresholds, not just the published ones.
"""

from repro.core import classify_result
from repro.core.study import effective_sizes

SENSITIVE = {"advection", "volume"}


def _memberships(result, size, slowdown_threshold, sensitive_cap):
    from repro.core.classify import classify

    out = {}
    for alg in result.algorithms:
        pts = result.select(algorithm=alg, size=size)
        c = classify(pts, sensitive_cap_w=sensitive_cap, threshold=slowdown_threshold)
        out[alg] = not c.is_opportunity
    return out


def bench_ablation_classify(benchmark, phase2_result):
    size = effective_sizes((128,))[0]

    def sweep():
        grid = {}
        for threshold in (0.05, 0.10, 0.15):
            for cap in (65.0, 70.0, 75.0):
                grid[(threshold, cap)] = _memberships(phase2_result, size, threshold, cap)
        return grid

    grid = benchmark.pedantic(sweep, rounds=3, iterations=1)

    print("\n--- A1: class membership across thresholds ---")
    agree = 0
    for (threshold, cap), members in sorted(grid.items()):
        got_sensitive = {a for a, s in members.items() if s}
        match = got_sensitive == SENSITIVE
        agree += match
        print(f"slowdown>{threshold:.2f}, boundary {cap:.0f}W -> "
              f"sensitive={sorted(got_sensitive)} {'OK' if match else 'DIFFERS'}")

    # The paper's split must hold at the published knobs and most of
    # the neighborhood.
    assert grid[(0.10, 70.0)] == {a: a in SENSITIVE for a in grid[(0.10, 70.0)]}
    assert agree >= 6, f"classification too fragile: {agree}/9 settings agree"
    benchmark.extra_info["agreement"] = f"{agree}/9"
