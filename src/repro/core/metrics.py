"""The study's metrics (paper §V).

* :class:`Ratios` — P/T/F ratios against the TDP baseline, with the
  paper's orientation (``Pratio = P_default / P_reduced``, ``Tratio =
  T_reduced / T_default``, ``Fratio = F_default / F_reduced`` — all ≥ 1
  in the expected direction).
* :func:`element_rate` — the Moreland–Oldfield efficiency rate
  ``n / T(n, p)`` used instead of speedup (paper §V-C).
* :func:`first_slowdown_cap` — the highest cap at which the 10 %
  slowdown first appears as power decreases (the red cells of
  Tables I–III).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Ratios", "element_rate", "first_slowdown_cap", "SLOWDOWN_THRESHOLD"]

#: The paper's significance threshold: a 10 % slowdown.
SLOWDOWN_THRESHOLD = 0.10


@dataclass(frozen=True)
class Ratios:
    """P/T/F ratios of a capped run against the default-power run."""

    pratio: float  # P_default / P_capped        (>= 1 as cap tightens)
    tratio: float  # T_capped  / T_default       (>= 1 when slowed)
    fratio: float  # F_default / F_capped        (>= 1 when throttled)

    @classmethod
    def from_measurements(
        cls,
        *,
        cap_default_w: float,
        cap_w: float,
        time_default_s: float,
        time_s: float,
        freq_default_ghz: float,
        freq_ghz: float,
    ) -> "Ratios":
        measurements = {
            "cap_default_w": cap_default_w,
            "cap_w": cap_w,
            "time_default_s": time_default_s,
            "time_s": time_s,
            "freq_default_ghz": freq_default_ghz,
            "freq_ghz": freq_ghz,
        }
        # NaN slips past a <= 0 comparison, so check finiteness first.
        bad = [k for k, v in measurements.items() if not math.isfinite(v)]
        if bad:
            raise ValueError(f"measurements must be finite, got non-finite {', '.join(bad)}")
        if min(cap_w, time_default_s, freq_ghz) <= 0:
            raise ValueError("measurements must be positive")
        return cls(
            pratio=cap_default_w / cap_w,
            tratio=time_s / time_default_s,
            fratio=freq_default_ghz / freq_ghz,
        )

    def to_dict(self) -> dict[str, float]:
        """Plain-dict form for JSON serialization."""
        return {"pratio": self.pratio, "tratio": self.tratio, "fratio": self.fratio}

    @classmethod
    def from_dict(cls, d: dict) -> "Ratios":
        return cls(pratio=float(d["pratio"]), tratio=float(d["tratio"]), fratio=float(d["fratio"]))

    @property
    def is_good_tradeoff(self) -> bool:
        """The paper's key comparison: data-intensive enough that the
        slowdown is smaller than the power reduction (Tratio < Pratio)."""
        return self.tratio < self.pratio

    @property
    def slowed_down(self) -> bool:
        """Whether the run crossed the 10 % slowdown threshold."""
        return self.tratio >= 1.0 + SLOWDOWN_THRESHOLD


def element_rate(n_elements: int, time_s: float) -> float:
    """Elements processed per second: the rate n / T(n, p) (§V-C).

    Only meaningful for algorithms that iterate over every cell
    (contour, clip, isovolume, threshold, slice) — Fig. 3's subset.
    """
    if time_s <= 0:
        raise ValueError("time must be positive")
    return n_elements / time_s


def first_slowdown_cap(
    rows: list[tuple[float, float]], *, threshold: float = SLOWDOWN_THRESHOLD
) -> float | None:
    """Highest cap whose Tratio crosses ``1 + threshold``.

    ``rows`` is ``[(cap_watts, tratio), ...]`` in any order.  Returns
    None when no cap produces a significant slowdown.  This is "the
    first time a 10 % slowdown occurs due to the power cap" marked red
    in the paper's tables: scanning from the deepest cap upward, the
    paper highlights the *highest* cap in the contiguous slowed region.
    """
    slowed = [cap for cap, tratio in rows if tratio >= 1.0 + threshold]
    return max(slowed) if slowed else None
