"""Power advisor: turn the study's findings into cap recommendations.

The paper's two use cases (§VII):

1. *Post hoc* on a shared cluster — request the least power that keeps
   the visualization's slowdown within tolerance, leaving headroom for
   power-hungry co-tenants (:func:`recommend_cap`).
2. *In situ* under a node budget — split power between simulation and
   visualization phases.  That split lives in the in-situ layer, which
   sits below ``core``: :func:`repro.insitu.budget.advisor_allocation`.

:class:`PowerAdvisor` packages the first use case as a hot-path query
service: op-count ledgers come from the one ledger store,
:class:`~repro.core.profiles.ProfileCache` (recorded once per
(algorithm, size) and dataset recipe by executing the real algorithm,
by a sweep or by an earlier query on any machine), caps are priced
through the vectorized :class:`~repro.core.pricing.BatchRepricer`, and
every query is instrumented with :mod:`repro.obs` spans and metrics —
the backing for ``repro advise`` and :func:`repro.api.advise`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

from ..machine.spec import BROADWELL_E5_2695V4, MachineSpec
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.trace import span
from .metrics import SLOWDOWN_THRESHOLD
from .pricing import BatchRepricer
from .profiles import ProfileCache, run_algorithm_ledger
from .runner import DEFAULT_VIZ_CYCLES, RunPoint
from .study import POWER_CAPS_W

__all__ = [
    "CapRecommendation",
    "Advice",
    "PowerAdvisor",
    "ADVISE_LATENCY_BUCKETS",
    "recommend_cap",
]

#: Sub-millisecond-oriented latency buckets for the advise histogram —
#: warm queries land in the 10–500 µs bands, cold (profile-executing)
#: queries in the right tail.
ADVISE_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0,
)


@dataclass(frozen=True)
class CapRecommendation:
    """Deepest tolerable cap for one algorithm, with predicted cost."""

    algorithm: str
    size: int
    cap_w: float
    predicted_tratio: float
    power_saved_w: float  # headroom released vs. the TDP baseline draw


def recommend_cap(
    points: list[RunPoint], *, tolerance: float = SLOWDOWN_THRESHOLD
) -> CapRecommendation:
    """Deepest cap whose slowdown stays within ``tolerance``.

    For power-opportunity algorithms this lands at or near the RAPL
    floor (the paper: "requesting the lowest amount of power will leave
    more for other power-hungry applications").  With no tolerable
    point at all, the TDP baseline itself is returned.  Ties on the cap
    resolve deterministically to the earliest point in input order
    (``min`` is stable), so repeated queries over the same grid always
    agree.
    """
    if not points:
        raise ValueError("need at least one run point")
    base = max(points, key=lambda p: p.cap_w)
    tolerable = [p for p in points if p.tratio <= 1.0 + tolerance]
    choice = min(tolerable, key=lambda p: p.cap_w) if tolerable else base
    return CapRecommendation(
        algorithm=choice.algorithm,
        size=choice.size,
        cap_w=choice.cap_w,
        predicted_tratio=choice.tratio,
        power_saved_w=max(base.power_w - choice.power_w, 0.0),
    )


@dataclass(frozen=True)
class Advice:
    """One advise query's complete answer."""

    point: RunPoint                      # priced at the requested (or recommended) cap
    recommendation: CapRecommendation    # deepest tolerable cap over the full grid
    cache_hit: bool                      # False when the query executed the algorithm
    latency_s: float


class PowerAdvisor:
    """Hot-path cap advisor over a ledger cache and a batch repricer.

    The first query for an (algorithm, size) executes the real
    algorithm once to record its op-count ledger (a cache fill — the
    same job body the sweep engine runs); every later query reprices
    the cached ledger closed-form in microseconds.  The cache is bound
    to the advisor's dataset recipe, as the engine binds its own, so
    advisors for every machine and sweep engines can share one.

    Instrumentation: ``repro_advise_queries_total{outcome=hit|miss}``
    counters, a ``repro_advise_latency_seconds`` histogram, and
    ``advise``/``advise-fill`` trace spans.
    """

    def __init__(
        self,
        spec: MachineSpec | None = None,
        *,
        cache: ProfileCache | str | Path | None = None,
        dataset_kind: str = "blobs",
        seed: int = 7,
        n_cycles: int = DEFAULT_VIZ_CYCLES,
        caps_w: tuple[float, ...] = POWER_CAPS_W,
        tolerance: float = SLOWDOWN_THRESHOLD,
        metrics: MetricsRegistry | None = None,
    ):
        self.spec = spec if spec is not None else BROADWELL_E5_2695V4
        self.cache = cache if isinstance(cache, ProfileCache) else ProfileCache(cache)
        self.cache.bind(dataset_kind, seed)
        self.repricer = BatchRepricer(self.spec, n_cycles=n_cycles)
        self.dataset_kind = str(dataset_kind)
        self.seed = int(seed)
        self.caps_w = tuple(float(c) for c in caps_w)
        if not self.caps_w:
            raise ValueError("need at least one power cap")
        self.tolerance = float(tolerance)
        #: The ``(dataset_kind, seed)`` recipe and the spec name, in the
        #: shape :meth:`ProfileCache.ingest_profile_cache` takes them.
        self.dataset = (self.dataset_kind, self.seed)
        self.machine = self.spec.name
        reg = metrics if metrics is not None else get_registry()
        self._q_hit = reg.counter(
            "repro_advise_queries_total", "advise queries", outcome="hit"
        )
        self._q_miss = reg.counter(
            "repro_advise_queries_total", "advise queries", outcome="miss"
        )
        self._latency = reg.histogram(
            "repro_advise_latency_seconds",
            "per-query advise latency",
            buckets=ADVISE_LATENCY_BUCKETS,
        )

    # ------------------------------------------------------------- ledgers
    def ledger_for(self, algorithm: str, size: int) -> tuple[dict[str, float], bool]:
        """The (ledger, cache_hit) pair for one key, filling on miss.

        A miss executes the real algorithm once — the same cache-fill
        body the sweep engine's profile jobs run — and stores the
        ledger for every later query, on any machine.
        """
        ledger = self.cache.get(algorithm, size)
        if ledger is not None:
            return ledger, True
        with span("advise-fill", algorithm=algorithm, size=int(size)):
            ledger = run_algorithm_ledger(
                algorithm, size, dataset_kind=self.dataset_kind, seed=self.seed
            )
        self.cache.put(algorithm, size, ledger)
        return ledger, False

    def warm(self, algorithms, sizes) -> int:
        """Fill the ledger cache for a grid; returns the fill count."""
        filled = 0
        for algorithm in algorithms:
            for size in sizes:
                _, hit = self.ledger_for(algorithm, size)
                if not hit:
                    filled += 1
        return filled

    # -------------------------------------------------------------- queries
    def advise(
        self,
        algorithm: str,
        size: int,
        *,
        cap_w: float | None = None,
        tolerance: float | None = None,
    ) -> Advice:
        """Answer one pricing query.

        With ``cap_w=None`` the answer is priced at the recommended
        (deepest tolerable) cap; otherwise at the requested cap, with
        the recommendation still included for comparison.
        """
        tol = self.tolerance if tolerance is None else float(tolerance)
        t0 = time.perf_counter()
        with span("advise", algorithm=algorithm, size=int(size)):
            ledger, hit = self.ledger_for(algorithm, size)
            points = self.repricer.reprice(algorithm, size, ledger, self.caps_w)
            rec = recommend_cap(points, tolerance=tol)
            target = rec.cap_w if cap_w is None else float(cap_w)
            point = self._grid_point(points, target)
            if point is None:
                point = self.repricer.reprice(
                    algorithm, size, ledger, (target,), default_cap_w=max(self.caps_w)
                )[0]
        latency = time.perf_counter() - t0
        (self._q_hit if hit else self._q_miss).inc()
        self._latency.observe(latency)
        return Advice(point=point, recommendation=rec, cache_hit=hit, latency_s=latency)

    def reprice_grid(self, algorithms, sizes, caps_w=None) -> list[RunPoint]:
        """Batch-price a whole algorithm × size × cap grid.

        Ledgers are filled on first use; with a warm cache the entire
        grid is closed-form — the path ``benchmarks/bench_advisor.py``
        holds to its queries-per-second floor.
        """
        caps = tuple(float(c) for c in caps_w) if caps_w is not None else self.caps_w
        points: list[RunPoint] = []
        for algorithm in algorithms:
            for size in sizes:
                ledger, _ = self.ledger_for(algorithm, size)
                points.extend(self.repricer.reprice(algorithm, size, ledger, caps))
        return points

    @staticmethod
    def _grid_point(points: list[RunPoint], cap_w: float) -> RunPoint | None:
        for p in points:
            if math.isclose(p.cap_w, cap_w, rel_tol=1e-9, abs_tol=1e-6):
                return p
        return None
