"""Fig. 3 — elements processed per second for the cell-centered
algorithms (contour, isovolume, slice, clip, threshold) versus cap.

Asserts the paper's observations: the rate is near-constant across most
caps (the denominator doesn't move until the cap bites) and declines at
severe caps; fast algorithms sit higher than slow ones.
"""

from repro.core import figure3_series
from repro.core.study import effective_sizes
from repro.viz import CELL_CENTERED


def bench_fig3_element_rate(benchmark, phase2_result):
    size = effective_sizes((128,))[0]
    fig = benchmark.pedantic(
        lambda: figure3_series(phase2_result, size=size, algorithms=CELL_CENTERED),
        rounds=3,
        iterations=1,
    )

    print("\n--- Fig 3: elements/second (millions) ---")
    caps = next(iter(fig.values())).x
    print(f"{'cap(W)':>10s} " + " ".join(f"{c:7.0f}" for c in caps))
    for alg, s in fig.items():
        print(f"{alg:>10s} " + " ".join(f"{v / 1e6:7.2f}" for v in s.y))

    for alg, s in fig.items():
        # Near-constant from 120 W down to 70 W (within 12%).
        high_caps = [y for x, y in zip(s.x, s.y) if x >= 70.0]
        assert max(high_caps) / min(high_caps) < 1.12, alg
        # Declining at the severe cap.
        assert s.y[0] < s.y[-1], f"{alg} rate should drop at 40W"

    # "Algorithms with very fast execution times will have a high rate":
    # threshold (one cheap pass) beats contour (10 isovalue passes).
    assert fig["threshold"].y[-1] > fig["contour"].y[-1]

    benchmark.extra_info["rate_at_tdp_meps"] = {
        alg: round(s.y[-1] / 1e6, 2) for alg, s in fig.items()
    }
