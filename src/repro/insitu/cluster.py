"""Multi-socket overprovisioned cluster — the paper's §III-A substrate.

The paper frames the study with hardware overprovisioning: more sockets
than the facility can power simultaneously, so a system-wide budget must
be divided.  It names the two reasons a *uniform* division wastes
capacity:

1. **non-uniform workload distribution** — sockets with little work
   finish early and strand their allocation while loaded sockets
   throttle;
2. **manufacturing variation** — "uniform power caps translate to
   variations in performance across otherwise identical processors"
   (Marathe et al.): the same cap yields different frequencies on
   different parts.

:class:`Cluster` models N sockets with seeded per-part efficiency
variation; :func:`uniform_caps` and :func:`demand_aware_caps` divide a
system budget the naive and the informed way.  The makespan gap between
them is the §III-A argument, quantified.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..machine.simulator import Processor, RunResult
from ..machine.spec import BROADWELL_E5_2695V4, MachineSpec
from ..workload import WorkProfile

__all__ = [
    "SocketRun",
    "ClusterResult",
    "Cluster",
    "uniform_caps",
    "demand_aware_caps",
]


@dataclass(frozen=True)
class SocketRun:
    """One socket's outcome under its cap."""

    socket: int
    cap_w: float
    time_s: float
    power_w: float
    freq_ghz: float


@dataclass
class ClusterResult:
    strategy: str
    runs: list[SocketRun] = field(default_factory=list)

    @property
    def makespan_s(self) -> float:
        """Distributed work: the slowest socket finishes the job."""
        return max(r.time_s for r in self.runs)

    @property
    def total_power_w(self) -> float:
        return sum(r.power_w for r in self.runs)

    @property
    def idle_ratio(self) -> float:
        """Mean fraction of the makespan sockets sit finished-and-idle
        (the paper's stranded capacity)."""
        m = self.makespan_s
        return float(np.mean([1.0 - r.time_s / m for r in self.runs])) if m > 0 else 0.0


class Cluster:
    """N sockets of one part with seeded manufacturing variation.

    ``variation`` is the relative sigma of the per-part dynamic-power
    efficiency (Marathe et al. report run-to-run part spreads of
    several percent at a fixed cap).  A less efficient part burns more
    Watts per unit work, so a uniform cap throttles it harder.
    """

    def __init__(
        self,
        n_sockets: int,
        *,
        spec: MachineSpec = BROADWELL_E5_2695V4,
        variation: float = 0.05,
        seed: int = 0,
    ):
        if n_sockets < 1:
            raise ValueError("need at least one socket")
        if not (0.0 <= variation < 0.5):
            raise ValueError("variation must be in [0, 0.5)")
        rng = np.random.default_rng(seed)
        factors = 1.0 + variation * rng.standard_normal(n_sockets)
        factors = np.clip(factors, 0.7, 1.3)
        self.spec = spec
        self.processors = [
            Processor(dataclasses.replace(spec, c_dyn=spec.c_dyn * float(f)))
            for f in factors
        ]
        self.efficiency_factors = factors

    @property
    def n_sockets(self) -> int:
        return len(self.processors)

    def run(self, workloads: list[WorkProfile], caps_w: list[float], strategy: str) -> ClusterResult:
        """Execute one workload per socket under per-socket caps."""
        if len(workloads) != self.n_sockets or len(caps_w) != self.n_sockets:
            raise ValueError("need one workload and one cap per socket")
        result = ClusterResult(strategy=strategy)
        for i, (proc, prof, cap) in enumerate(zip(self.processors, workloads, caps_w)):
            r: RunResult = proc.run(prof, cap)
            result.runs.append(
                SocketRun(
                    socket=i,
                    cap_w=cap,
                    time_s=r.time_s,
                    power_w=r.avg_power_w,
                    freq_ghz=r.effective_freq_ghz,
                )
            )
        return result


def uniform_caps(cluster: Cluster, workloads: list[WorkProfile], budget_w: float) -> ClusterResult:
    """The naive §III-A strategy: the budget divided evenly."""
    cap = cluster.processors[0].rapl.validate_cap(budget_w / cluster.n_sockets)
    return cluster.run(workloads, [cap] * cluster.n_sockets, "uniform")


def demand_aware_caps(
    cluster: Cluster,
    workloads: list[WorkProfile],
    budget_w: float,
    *,
    iterations: int = 12,
) -> ClusterResult:
    """Assign power where it is needed most (§III-A's better strategy).

    Iterative water-filling on predicted finish times: every round, move
    budget from the socket with the most slack to the one on the
    critical path, while the total allocation stays fixed.
    """
    n = cluster.n_sockets
    floor = cluster.spec.rapl_floor_watts
    tdp = cluster.spec.tdp_watts
    if budget_w < n * floor:
        raise ValueError(f"budget below the {n}-socket floor ({n * floor} W)")
    caps = np.full(n, min(budget_w / n, tdp))

    def times(c: np.ndarray) -> np.ndarray:
        return np.array(
            [p.run(w, float(cap)).time_s for p, w, cap in zip(cluster.processors, workloads, c)]
        )

    step = max((tdp - floor) / 8.0, 1.0)
    for _ in range(iterations):
        t = times(caps)
        slow = int(np.argmax(t))
        # Donor: the socket with the most idle slack that can still give.
        candidates = [i for i in range(n) if i != slow and caps[i] - step >= floor]
        if not candidates or caps[slow] + step > tdp:
            break
        donor = min(candidates, key=lambda i: t[i])
        if t[donor] >= t[slow]:
            break
        caps[donor] -= step
        caps[slow] += step
    return cluster.run(workloads, [float(c) for c in caps], "demand-aware")
