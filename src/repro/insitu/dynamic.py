"""Dynamic per-cycle power reallocation — the runtime the paper envisions.

§VII: "We can integrate the findings into a job-level runtime system,
like PaViz or GEOPM, to dynamically reallocate the power to the various
components within the job."  The static advisor
(:mod:`repro.insitu.budget`) decides once; this controller re-decides
*every cycle* from the previous cycle's measured phase draws — no
oracle knowledge of the workload, only the counters a real runtime
sees.

Policy per cycle: give each phase its measured draw plus a headroom
margin (so it never throttles on its own demand), distribute the
remaining node budget proportionally to how throttled each phase was,
and clamp into the RAPL range.  Converges within a couple of cycles to
the static advisor's split when the workload is stationary — a property
the tests check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..machine.simulator import Processor
from ..workload import WorkProfile

__all__ = ["DynamicCycleRecord", "DynamicRunResult", "DynamicPowerRuntime"]


@dataclass(frozen=True)
class DynamicCycleRecord:
    """One control period's decisions and measurements."""

    cycle: int
    sim_cap_w: float
    viz_cap_w: float
    sim_time_s: float
    viz_time_s: float
    sim_power_w: float
    viz_power_w: float

    @property
    def makespan_s(self) -> float:
        return max(self.sim_time_s, self.viz_time_s)


@dataclass
class DynamicRunResult:
    cycles: list[DynamicCycleRecord] = field(default_factory=list)

    @property
    def total_makespan_s(self) -> float:
        return sum(c.makespan_s for c in self.cycles)

    def final_caps(self) -> tuple[float, float]:
        if not self.cycles:
            raise ValueError("no cycles recorded")
        last = self.cycles[-1]
        return last.sim_cap_w, last.viz_cap_w


class DynamicPowerRuntime:
    """Feedback power-budget controller over concurrent sim/viz sockets.

    Parameters
    ----------
    node_budget_w:
        Combined cap for the two sockets.
    headroom_w:
        Margin added to each phase's measured draw before redistributing
        the surplus (keeps a phase from throttling on natural variance).
    """

    def __init__(
        self,
        processor: Processor,
        node_budget_w: float,
        *,
        headroom_w: float = 5.0,
    ):
        floor = 2 * processor.spec.rapl_floor_watts
        if node_budget_w < floor:
            raise ValueError(f"node budget below the 2-socket floor ({floor} W)")
        self.proc = processor
        self.budget = float(node_budget_w)
        self.headroom = float(headroom_w)

    def _clamp(self, cap: float) -> float:
        return self.proc.rapl.validate_cap(cap)

    def decide(self, sim_draw_w: float, viz_draw_w: float) -> tuple[float, float]:
        """Next cycle's (sim_cap, viz_cap) from measured draws."""
        floor = self.proc.spec.rapl_floor_watts
        want_sim = sim_draw_w + self.headroom
        want_viz = viz_draw_w + self.headroom
        surplus = self.budget - want_sim - want_viz
        if surplus >= 0:
            # Both satisfied: hand the surplus to the hungrier phase
            # (it is the one a cap would hurt).
            if sim_draw_w >= viz_draw_w:
                want_sim += surplus
            else:
                want_viz += surplus
        else:
            # Oversubscribed: shave proportionally to demand.
            scale = self.budget / (want_sim + want_viz)
            want_sim *= scale
            want_viz *= scale
        # The surplus hand-off may push one phase's wish near (or past)
        # the whole budget.  validate_cap clamps *upward* to the RAPL
        # floor, so an uncapped wish would leave the other phase with
        # less than floor headroom and the floor clamp would then push
        # the pair over budget — or, when budget > TDP, leave a
        # non-positive remainder that validate_cap rejects outright.
        # Reserving floor headroom before clamping keeps the remainder
        # in [floor, budget] and the pair within the budget, since the
        # constructor guarantees budget >= 2 * floor.
        sim_cap = self._clamp(min(want_sim, self.budget - floor))
        viz_cap = self._clamp(min(want_viz, self.budget - sim_cap))
        return sim_cap, viz_cap

    def run(
        self,
        sim_profile: WorkProfile,
        viz_profile: WorkProfile,
        n_cycles: int,
    ) -> DynamicRunResult:
        """Drive ``n_cycles`` with per-cycle feedback.

        Cycle 0 starts from the naive 50/50 split; every later cycle
        uses the previous cycle's measured draws.
        """
        if n_cycles < 1:
            raise ValueError("need at least one cycle")
        result = DynamicRunResult()
        sim_cap = viz_cap = self._clamp(self.budget / 2.0)
        for cycle in range(n_cycles):
            sim_run = self.proc.run(sim_profile, sim_cap)
            viz_run = self.proc.run(viz_profile, viz_cap)
            result.cycles.append(
                DynamicCycleRecord(
                    cycle=cycle,
                    sim_cap_w=sim_cap,
                    viz_cap_w=viz_cap,
                    sim_time_s=sim_run.time_s,
                    viz_time_s=viz_run.time_s,
                    sim_power_w=sim_run.avg_power_w,
                    viz_power_w=viz_run.avg_power_w,
                )
            )
            sim_cap, viz_cap = self.decide(sim_run.avg_power_w, viz_run.avg_power_w)
        return result
