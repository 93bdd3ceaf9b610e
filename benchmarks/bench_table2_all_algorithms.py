"""Table II — Phase 2: slowdown factors for all 8 algorithms at 128³.

Regenerates the Tratio/Fratio grid and asserts the study's central
result: the algorithms split into a power-opportunity class (first
slowdown at deep caps, low draw) and a power-sensitive class (particle
advection and volume rendering: high draw, early slowdown).
"""

from repro import api
from repro.core import classify_result, first_slowdown_cap, render_slowdown_table
from repro.core.study import effective_sizes

OPPORTUNITY = ("contour", "threshold", "clip", "isovolume", "slice", "raytrace")
SENSITIVE = ("advection", "volume")


def bench_table2_all_algorithms(benchmark, engine):
    size = effective_sizes((128,))[0]
    config = api.resolve_config("table2")
    result = benchmark.pedantic(engine.run, (config,), rounds=1, iterations=1)
    print()
    print(render_slowdown_table(result, size=size))

    classes = classify_result(result, size=size)

    # The paper's two classes, by membership.
    for alg in SENSITIVE:
        assert not classes[alg].is_opportunity, f"{alg} should be power sensitive"
    for alg in OPPORTUNITY:
        assert classes[alg].is_opportunity, f"{alg} should be power opportunity"

    # Power-sensitive algorithms draw the most power (paper: ~85 W vs
    # 55-70 W for the rest).
    min_sensitive = min(classes[a].natural_power_w for a in SENSITIVE)
    max_opportunity = max(classes[a].natural_power_w for a in OPPORTUNITY)
    assert min_sensitive > max_opportunity

    # First-slowdown caps: the sensitive pair throttles at/above 70 W,
    # the opportunity class holds out to 60 W or deeper.
    for alg in SENSITIVE:
        red = classes[alg].first_slowdown_cap_w
        assert red is not None and red >= 70.0, f"{alg} red cap {red}"
    for alg in OPPORTUNITY:
        red = classes[alg].first_slowdown_cap_w
        assert red is None or red <= 60.0, f"{alg} red cap {red}"

    # Paper detail: contour survives until the very deepest cap.
    contour_red = classes["contour"].first_slowdown_cap_w
    assert contour_red == 40.0

    benchmark.extra_info["red_caps"] = {
        a: c.first_slowdown_cap_w for a, c in classes.items()
    }
    benchmark.extra_info["power_draw"] = {
        a: round(c.natural_power_w, 1) for a, c in classes.items()
    }
