"""Power advisor: classify the eight algorithms and recommend caps.

Reproduces the study's actionable output — for each algorithm, which
power class it belongs to and the deepest cap it tolerates — the data a
job-level runtime (GEOPM/PaViz) would consume.

Run:  python examples/power_advisor.py          (64^3, fast)
      REPRO_SIZE=128 python examples/power_advisor.py
"""

import os

from repro.core import (
    StudyConfig,
    SweepEngine,
    classify_result,
    recommend_cap,
)
from repro.core.study import ALGORITHM_NAMES


def main() -> None:
    size = int(os.environ.get("REPRO_SIZE", "64"))
    print(f"sweeping 8 algorithms x 9 caps at {size}^3 "
          f"(one real execution per algorithm)...\n")

    cfg = StudyConfig(name="advisor", algorithms=ALGORITHM_NAMES, sizes=(size,))
    result = SweepEngine(workers=0).run(cfg)
    classes = classify_result(result, size=size)

    print(f"{'algorithm':>10} {'class':>18} {'draw':>7} {'IPC':>6} {'miss':>6} "
          f"{'rec. cap':>9} {'cost':>7}")
    for alg in ALGORITHM_NAMES:
        c = classes[alg]
        rec = recommend_cap(result.select(algorithm=alg, size=size))
        print(
            f"{alg:>10} {c.power_class.value:>18} {c.natural_power_w:>6.1f}W "
            f"{c.baseline_ipc:>6.2f} {c.llc_miss_rate:>6.2f} "
            f"{rec.cap_w:>8.0f}W {rec.predicted_tratio:>6.2f}X"
        )

    opportunity = [a for a, c in classes.items() if c.is_opportunity]
    print(
        f"\n{len(opportunity)} of 8 algorithms are power opportunities: run them"
        f"\nat the recommended caps and hand the headroom to the simulation."
    )

    # The same answer as a service: the pricing cache makes repeat
    # queries sub-millisecond (see docs/pricing_service.md).
    from repro import AdviseRequest, advise

    req = AdviseRequest(algorithm="contour", size=size)
    advise(req)  # first query executes the algorithm and fills the cache
    resp = advise(req)
    print(
        f"\nadvise(contour@{size}^3): cap {resp.recommended_cap_w:.0f}W, "
        f"{resp.predicted_tratio:.2f}X slowdown, "
        f"answered from cache in {resp.latency_s * 1e3:.2f} ms"
    )


if __name__ == "__main__":
    main()
