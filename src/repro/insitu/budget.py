"""Job-level power-budget runtime (the GEOPM / PaViz role).

The paper's motivating use case (§I, §VII): "a runtime system that
assigns power between a simulation and visualization application
running concurrently under a power budget, such that overall
performance is maximized."  Model: two sockets of a node run the
simulation and the visualization concurrently; their caps must sum to
at most the node budget.

Strategies:

* :func:`uniform_allocation` — the naive scheme the paper argues
  against: split the budget evenly.
* :func:`advisor_allocation` — the paper's recipe: find the deepest cap
  the visualization tolerates (slowdown within ``tolerance``) and hand
  everything else to the power-hungry simulation.

Both return a :class:`BudgetDecision` whose makespan is the slower of
the two concurrent phases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machine.simulator import Processor
from ..workload import WorkProfile

__all__ = [
    "PhaseCosting",
    "BudgetDecision",
    "uniform_allocation",
    "advisor_allocation",
]


@dataclass(frozen=True)
class PhaseCosting:
    """Time/energy of one phase at one cap."""

    cap_w: float
    time_s: float
    energy_j: float

    @property
    def power_w(self) -> float:
        return self.energy_j / self.time_s if self.time_s > 0 else 0.0


@dataclass(frozen=True)
class BudgetDecision:
    """A runtime's chosen per-socket caps and the predicted outcome."""

    strategy: str
    sim_cap_w: float
    viz_cap_w: float
    sim: PhaseCosting
    viz: PhaseCosting

    @property
    def makespan_s(self) -> float:
        """Concurrent phases: the job finishes with the slower one."""
        return max(self.sim.time_s, self.viz.time_s)

    @property
    def budget_used_w(self) -> float:
        """Instantaneous node draw while both sockets are busy."""
        return self.sim.power_w + self.viz.power_w

    @property
    def cap_total_w(self) -> float:
        return self.sim_cap_w + self.viz_cap_w


def _cost(proc: Processor, profile: WorkProfile, cap: float) -> PhaseCosting:
    r = proc.run(profile, cap)
    return PhaseCosting(cap_w=cap, time_s=r.time_s, energy_j=r.energy_j)


def _validate_budget(proc: Processor, node_budget_w: float) -> float:
    floor = 2 * proc.spec.rapl_floor_watts
    if node_budget_w < floor:
        raise ValueError(
            f"node budget {node_budget_w} W below the 2-socket RAPL floor ({floor} W)"
        )
    return float(node_budget_w)


def uniform_allocation(
    proc: Processor, sim_profile: WorkProfile, viz_profile: WorkProfile, node_budget_w: float
) -> BudgetDecision:
    """The naive scheme: both sockets get half the node budget."""
    budget = _validate_budget(proc, node_budget_w)
    half = proc.rapl.validate_cap(budget / 2.0)
    return BudgetDecision(
        strategy="uniform",
        sim_cap_w=half,
        viz_cap_w=half,
        sim=_cost(proc, sim_profile, half),
        viz=_cost(proc, viz_profile, half),
    )


def advisor_allocation(
    proc: Processor,
    sim_profile: WorkProfile,
    viz_profile: WorkProfile,
    node_budget_w: float,
    *,
    tolerance: float = 0.10,
    cap_step_w: float = 5.0,
) -> BudgetDecision:
    """The paper's recipe: deep-cap the visualization, boost the sim.

    The visualization cap is the deepest whose slowdown stays within
    ``tolerance`` of its uncapped time; the simulation receives the
    remaining budget (clamped into the RAPL range).
    """
    budget = _validate_budget(proc, node_budget_w)
    spec = proc.spec
    caps = np.arange(spec.rapl_floor_watts, spec.tdp_watts + 0.5, cap_step_w)

    viz_base = _cost(proc, viz_profile, spec.tdp_watts)
    viz_choice = _cost(proc, viz_profile, proc.rapl.validate_cap(budget / 2.0))
    for cap in caps:  # ascending: the first tolerable cap is the deepest
        c = _cost(proc, viz_profile, float(cap))
        if c.time_s <= viz_base.time_s * (1.0 + tolerance):
            viz_choice = c
            break

    sim_cap = proc.rapl.validate_cap(budget - viz_choice.cap_w)
    decision = BudgetDecision(
        strategy="advisor",
        sim_cap_w=sim_cap,
        viz_cap_w=viz_choice.cap_w,
        sim=_cost(proc, sim_profile, sim_cap),
        viz=viz_choice,
    )
    # An informed runtime never does worse than the naive split: when a
    # power-sensitive visualization makes the skewed split lose (its
    # tolerable cap eats the whole budget), fall back to uniform.
    fallback = uniform_allocation(proc, sim_profile, viz_profile, budget)
    if fallback.makespan_s < decision.makespan_s:
        return BudgetDecision(
            strategy="advisor(uniform-fallback)",
            sim_cap_w=fallback.sim_cap_w,
            viz_cap_w=fallback.viz_cap_w,
            sim=fallback.sim,
            viz=fallback.viz,
        )
    return decision
