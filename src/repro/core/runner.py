"""Study results: run points, their serialization, and how one is built.

A :class:`RunPoint` is one cell of the paper's tables — one
(algorithm, size, power cap) configuration's time, energy, power,
frequency, IPC, and miss rate, with its ratios against the TDP
baseline.  :func:`make_run_point` assembles one from a capped run and
its baseline; a :class:`StudyResult` carries a sweep's points.  The
sweep itself is :class:`~repro.core.engine.SweepEngine`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from ..machine.simulator import RunResult
from .metrics import Ratios

__all__ = ["RunPoint", "StudyResult", "make_run_point", "DEFAULT_VIZ_CYCLES"]

#: Visualization cycles per run: the study couples CloverLeaf's ~87-step
#: benchmark with per-cycle visualization; total times in its tables
#: aggregate "all visualization cycles".
DEFAULT_VIZ_CYCLES = 87


@dataclass(frozen=True)
class RunPoint:
    """One configuration's measurements (a cell of Tables I–III)."""

    algorithm: str
    size: int
    cap_w: float
    time_s: float
    energy_j: float
    power_w: float
    freq_ghz: float
    ipc: float
    llc_miss_rate: float
    ratios: Ratios

    @property
    def pratio(self) -> float:
        return self.ratios.pratio

    @property
    def tratio(self) -> float:
        return self.ratios.tratio

    @property
    def fratio(self) -> float:
        return self.ratios.fratio

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """Plain-dict form; floats round-trip bitwise through JSON."""
        return {
            "algorithm": self.algorithm,
            "size": self.size,
            "cap_w": self.cap_w,
            "time_s": self.time_s,
            "energy_j": self.energy_j,
            "power_w": self.power_w,
            "freq_ghz": self.freq_ghz,
            "ipc": self.ipc,
            "llc_miss_rate": self.llc_miss_rate,
            "ratios": self.ratios.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunPoint":
        return cls(
            algorithm=str(d["algorithm"]),
            size=int(d["size"]),
            cap_w=float(d["cap_w"]),
            time_s=float(d["time_s"]),
            energy_j=float(d["energy_j"]),
            power_w=float(d["power_w"]),
            freq_ghz=float(d["freq_ghz"]),
            ipc=float(d["ipc"]),
            llc_miss_rate=float(d["llc_miss_rate"]),
            ratios=Ratios.from_dict(d["ratios"]),
        )

    def to_jsonl(self) -> str:
        """One JSON line (no trailing newline)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_jsonl(cls, line: str) -> "RunPoint":
        return cls.from_dict(json.loads(line))

    @property
    def key(self) -> tuple[str, int, float]:
        """The configuration cell this point measures."""
        return (self.algorithm, self.size, self.cap_w)


@dataclass
class StudyResult:
    """All RunPoints of a sweep, with selection helpers."""

    config_name: str
    points: list[RunPoint] = field(default_factory=list)

    def select(
        self, *, algorithm: str | None = None, size: int | None = None, cap_w: float | None = None
    ) -> list[RunPoint]:
        out = self.points
        if algorithm is not None:
            out = [p for p in out if p.algorithm == algorithm]
        if size is not None:
            out = [p for p in out if p.size == size]
        if cap_w is not None:
            # Caps are floats and travel through CSV/JSONL: exact ==
            # silently drops fractional caps (62.5 W) that picked up a
            # last-ulp wobble on a round-trip, so match with a tolerance
            # far below any physically distinct cap spacing.
            out = [
                p for p in out if math.isclose(p.cap_w, cap_w, rel_tol=1e-9, abs_tol=1e-6)
            ]
        return out

    def baseline(self, algorithm: str, size: int) -> RunPoint:
        """The default-power (highest-cap) point for an algorithm/size."""
        rows = self.select(algorithm=algorithm, size=size)
        if not rows:
            raise KeyError(f"no points for {algorithm} at {size}^3")
        return max(rows, key=lambda p: p.cap_w)

    @property
    def algorithms(self) -> list[str]:
        seen: dict[str, None] = {}
        for p in self.points:
            seen.setdefault(p.algorithm, None)
        return list(seen)

    @property
    def sizes(self) -> list[int]:
        return sorted({p.size for p in self.points})

    @property
    def caps(self) -> list[float]:
        return sorted({p.cap_w for p in self.points}, reverse=True)


def make_run_point(
    algorithm: str,
    size: int,
    cap: float,
    run: RunResult,
    base: RunResult,
    default_cap: float,
) -> RunPoint:
    """Assemble one table cell from a capped run and its TDP baseline.

    The sweep engine's pricing path and the benchmark gates build points
    here, so the same ``RunResult`` pair always yields the same point,
    bitwise.
    """
    ratios = Ratios.from_measurements(
        cap_default_w=default_cap,
        cap_w=cap,
        time_default_s=base.time_s,
        time_s=run.time_s,
        freq_default_ghz=base.effective_freq_ghz,
        freq_ghz=run.effective_freq_ghz,
    )
    return RunPoint(
        algorithm=algorithm,
        size=size,
        cap_w=cap,
        time_s=run.time_s,
        energy_j=run.energy_j,
        power_w=run.avg_power_w,
        freq_ghz=run.effective_freq_ghz,
        ipc=run.ipc,
        llc_miss_rate=run.llc_miss_rate,
        ratios=ratios,
    )

