"""Machine-layer fault injection: the sensors and the enforcement loop.

Real power-capped measurement stacks see three failure shapes that a
clean simulator never produces: the cap is *enforced with jitter* (the
running-average controller over- and under-shoots the programmed
limit), enforcement occasionally *lapses entirely* for a control window
(a transient cap-not-met excursion), and the 100 ms power sampler
*drops or distorts readings* (sensor dropout, noise spikes).

:class:`MachineFaultInjector` realizes those three shapes from a
:class:`~repro.faults.plan.FaultPlan` and plugs into the two hook
points the machine layer exposes:

* ``RaplController.fault_hook`` — consulted once per operating-point
  decision (``cap_jitter_w`` / ``excursion``);
* ``Processor.fault_hook`` — consulted once per emitted power sample
  (``filter_sample``).

The injector draws from its own seeded generator, so a given plan
produces the identical fault trace on every run.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..machine.simulator import Processor
from ..obs.samples import PowerSample
from .plan import FaultPlan

__all__ = ["MachineFaultInjector", "inject_machine_faults", "clear_machine_faults"]


class MachineFaultInjector:
    """Stateful, seeded source of machine-layer faults with counters."""

    def __init__(self, plan: FaultPlan, key: str = "machine"):
        self.plan = plan
        digest = hashlib.sha256(f"{plan.seed}|{key}".encode()).digest()
        self._rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
        self.decisions = 0
        self.excursions = 0
        self.samples_seen = 0
        self.samples_dropped = 0
        self.samples_noised = 0

    # ------------------------------------------------------ RAPL decisions
    def cap_jitter_w(self) -> float:
        """Per-decision enforcement error added to the programmed cap (W)."""
        self.decisions += 1
        if self.plan.cap_jitter_w <= 0.0:
            return 0.0
        return float(self._rng.normal(0.0, self.plan.cap_jitter_w))

    def excursion(self) -> bool:
        """Whether enforcement lapses for this decision (full frequency)."""
        if self.plan.cap_excursion_p <= 0.0:
            return False
        hit = bool(self._rng.random() < self.plan.cap_excursion_p)
        if hit:
            self.excursions += 1
        return hit

    # ----------------------------------------------------------- sampling
    def filter_sample(self, sample: PowerSample) -> PowerSample | None:
        """Pass, distort, or drop one 100 ms sampler reading."""
        self.samples_seen += 1
        if self.plan.sample_dropout_p > 0.0 and self._rng.random() < self.plan.sample_dropout_p:
            self.samples_dropped += 1
            return None
        if self.plan.sample_noise_w > 0.0:
            self.samples_noised += 1
            return PowerSample(
                t_s=sample.t_s,
                dt_s=sample.dt_s,
                power_w=sample.power_w + float(self._rng.normal(0.0, self.plan.sample_noise_w)),
                f_eff_ghz=sample.f_eff_ghz,
                instructions=sample.instructions,
                llc_refs=sample.llc_refs,
                llc_misses=sample.llc_misses,
            )
        return sample

    def summary(self) -> dict[str, int]:
        return {
            "decisions": self.decisions,
            "excursions": self.excursions,
            "samples_seen": self.samples_seen,
            "samples_dropped": self.samples_dropped,
            "samples_noised": self.samples_noised,
        }


def inject_machine_faults(processor: Processor, plan: FaultPlan) -> MachineFaultInjector:
    """Install a plan's machine faults on a processor; returns the injector."""
    injector = MachineFaultInjector(plan)
    processor.fault_hook = injector
    processor.rapl.fault_hook = injector
    return injector


def clear_machine_faults(processor: Processor) -> None:
    """Remove any installed machine faults (back to clean physics)."""
    processor.fault_hook = None
    processor.rapl.fault_hook = None
