"""RAPL-like power-cap controller.

Intel's Running Average Power Limit holds a socket under a programmed cap
by lowering the core frequency/voltage operating point, falling back to
clock throttling (T-states) when even the lowest P-state is too hot.
This module reproduces that policy against the simulated power model:

* :meth:`RaplController.operating_point` — pick the highest frequency
  bin whose modeled power fits the cap; if none fits, duty-cycle at the
  floor frequency.
* The traced simulator (:mod:`repro.machine.simulator`) re-runs the
  decision every control window, optionally with measurement noise and
  an integral correction — mirroring how hardware RAPL tracks a running
  average rather than clairvoyant truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exec_model import SegmentEval
from .power import PowerModel
from .spec import MachineSpec

__all__ = ["OperatingPoint", "RaplController", "MIN_DUTY"]

# Hardware T-state throttling bottoms out around 12.5% duty on this era
# of Intel parts; below that the part simply exceeds the cap.
MIN_DUTY = 0.125


@dataclass(frozen=True)
class OperatingPoint:
    """The controller's decision for one segment under one cap."""

    f_ghz: float
    duty: float
    power_w: float        # modeled power actually drawn at this point
    cap_met: bool         # False when even max throttling exceeds the cap


class RaplController:
    """Chooses frequency (and duty) to hold a power cap."""

    def __init__(
        self,
        spec: MachineSpec,
        power_model: PowerModel | None = None,
        fault_hook: object | None = None,
    ):
        self.spec = spec
        self.power_model = power_model or PowerModel(spec)
        #: Optional fault injector (``repro.faults``): consulted once per
        #: operating-point decision for enforcement jitter and transient
        #: cap-not-met excursions.  None = clean enforcement.
        self.fault_hook = fault_hook
        #: Decision accounting.  The tests read it as the scalar oracle
        #: for the RAPL counts the sweep engine derives from its batch
        #: pricing passes.  Plain ints so the hot decision loop pays no
        #: lock or registry lookup.
        self.decisions = 0
        self.throttle_decisions = 0

    def validate_cap(self, cap_watts: float) -> float:
        """Clamp a requested cap into the socket's programmable range."""
        # NaN compares False against everything, so the <= 0 guard alone
        # would let NaN (and inf) flow into min/max and silently poison
        # every downstream measurement.
        if not math.isfinite(cap_watts):
            raise ValueError(f"power cap must be finite, got {cap_watts}")
        if cap_watts <= 0:
            raise ValueError(f"power cap must be positive, got {cap_watts}")
        return float(min(max(cap_watts, self.spec.rapl_floor_watts), self.spec.tdp_watts))

    def operating_point(
        self,
        ev: SegmentEval,
        cap_watts: float,
        *,
        power_offset_w: float = 0.0,
        f_ceiling_ghz: float | None = None,
        duty_cap: float = 1.0,
    ) -> OperatingPoint:
        """Highest-performance operating point whose power fits the cap.

        ``power_offset_w`` shifts the modeled power (the traced
        simulator's integral correction feeds in here).
        ``f_ceiling_ghz`` pins the P-state scan below a DVFS frequency
        ceiling; ``duty_cap`` upper-bounds the clock duty (DDCM-style
        modulation).  Both default to unconstrained, in which case the
        decision is bit-identical to the historical RAPL-only path.
        """
        cap = self.validate_cap(cap_watts)
        if not (MIN_DUTY <= duty_cap <= 1.0):
            raise ValueError(f"duty_cap must be in [{MIN_DUTY}, 1], got {duty_cap}")
        self.decisions += 1
        bins = self.spec.freq_bins
        if f_ceiling_ghz is not None:
            # Tolerance matches the bin rounding in MachineSpec.freq_bins.
            bins = bins[bins <= f_ceiling_ghz + 1e-6]
            if len(bins) == 0:
                raise ValueError(
                    f"frequency ceiling {f_ceiling_ghz} GHz is below the lowest "
                    f"P-state bin ({self.spec.f_min} GHz)"
                )
        hook = self.fault_hook
        if hook is not None:
            # Enforcement jitter: hardware tracks a running average, so
            # the cap it actually holds wobbles around the programmed one.
            cap = max(1.0, cap + hook.cap_jitter_w())
            if hook.excursion():
                # Transient enforcement lapse: the controller grants full
                # frequency for this decision regardless of the cap, and
                # honestly reports whether the cap was met.  The DVFS
                # ceiling and duty cap are honored even during a lapse —
                # they are programmed limits, not feedback.
                f = float(bins[-1])
                p = self.power_model.power(ev, f, duty=duty_cap) + power_offset_w
                return OperatingPoint(f, duty_cap, p - power_offset_w, p <= cap)
        # Scan from the top: RAPL grants as much frequency as fits.
        for f in bins[::-1]:
            p = self.power_model.power(ev, float(f), duty=duty_cap) + power_offset_w
            if p <= cap:
                return OperatingPoint(float(f), duty_cap, p - power_offset_w, True)

        # No P-state fits: throttle at the floor frequency.
        return self._duty_cycle(ev, cap, power_offset_w, duty_cap=duty_cap)

    def _duty_cycle(
        self, ev: SegmentEval, cap: float, power_offset_w: float, *, duty_cap: float = 1.0
    ) -> OperatingPoint:
        self.throttle_decisions += 1
        f = self.spec.f_min
        lo, hi = MIN_DUTY, duty_cap

        def p_at(duty: float) -> float:
            return self.power_model.power(ev, f, duty=duty) + power_offset_w

        if p_at(MIN_DUTY) > cap:
            # Even maximal throttling exceeds the cap (extremely
            # traffic-heavy work under an extreme cap) — run at the
            # floor and report the violation, as real silicon would.
            return OperatingPoint(f, MIN_DUTY, p_at(MIN_DUTY) - power_offset_w, False)

        for _ in range(40):  # bisection to well below 0.1 W resolution
            mid = 0.5 * (lo + hi)
            if p_at(mid) <= cap:
                lo = mid
            else:
                hi = mid
        return OperatingPoint(f, lo, p_at(lo) - power_offset_w, True)
