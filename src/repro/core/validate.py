"""Invariant guardrails: is a sweep point physically sane?

The paper's Tables I–III rest on a handful of physical invariants that
a healthy measurement stack can never violate:

* modeled power stays at or under the programmed cap (within an
  enforcement tolerance), or, for a cap below the socket's RAPL floor,
  under the floor the controller enforces instead;
* runtime is non-decreasing as the cap drops for a fixed
  (algorithm, size) — capping can only slow work down;
* IPC, LLC miss rate, and effective frequency are finite and inside
  the bins the machine spec allows;
* a point's stored ratios agree with its stored measurements.

:class:`PointValidator` checks every :class:`~repro.core.runner.RunPoint`
against them.  Violations never abort a sweep: the engine stores the
offending point as a quarantine record of the result store, with a
machine-readable reason, and keeps going, and ``repro doctor`` applies
the same checks to a store at rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from ..machine.rapl import MIN_DUTY
from ..machine.spec import BROADWELL_E5_2695V4, MachineSpec
from .runner import RunPoint, StudyResult
from .store import ResultStore

__all__ = [
    "POWER_ABS_TOL_W",
    "POWER_REL_TOL",
    "RATIO_REL_TOL",
    "TIME_REL_TOL",
    "Violation",
    "PointValidator",
    "ValidationReport",
    "validate_store",
]

#: RunPoint fields that must be finite for the point to mean anything;
#: a governed epoch has the first four.
_FINITE_FIELDS = ("time_s", "energy_j", "power_w", "freq_ghz", "ipc", "llc_miss_rate")

#: Power may exceed its cap by this relative share plus this many watts.
POWER_REL_TOL = 0.01
POWER_ABS_TOL_W = 0.5
#: A run may beat the time of one with more capacity by this share.
TIME_REL_TOL = 1e-9
#: Stored ratios and repeated epochs may disagree by this share.
RATIO_REL_TOL = 1e-6

PointKey = tuple[str, int, float]


def _power_limit(cap_w: float) -> float:
    """The most power a run under ``cap_w`` may draw."""
    return cap_w * (1.0 + POWER_REL_TOL) + POWER_ABS_TOL_W


def _faster_than_capacity_allows(chain):
    """Walk ``chain``, ordered from the most to the least capacity, and
    yield ``(run, last_good)`` for each run that claims to be faster
    under *less* capacity than the last trustworthy run above it."""
    if not chain:
        return
    last_good = chain[0]
    for r in chain[1:]:
        if r.time_s < last_good.time_s * (1.0 - TIME_REL_TOL):
            yield r, last_good
        else:
            last_good = r


@dataclass(frozen=True)
class Violation:
    """One broken invariant, machine-readable."""

    code: str
    message: str

    def to_dict(self) -> dict[str, str]:
        return {"code": self.code, "message": self.message}


@dataclass
class ValidationReport:
    """Outcome of validating a set of points (a group, a result, a store)."""

    n_points: int = 0
    violations: dict[PointKey, list[Violation]] = field(default_factory=dict)
    quarantined: int = 0
    source: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def n_bad(self) -> int:
        return len(self.violations)

    def counts_by_code(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for vs in self.violations.values():
            for v in vs:
                out[v.code] = out.get(v.code, 0) + 1
        return dict(sorted(out.items()))

    def render(self) -> str:
        """Human-readable report (the body of ``repro doctor``)."""
        head = f"validated {self.n_points} points" + (f" from {self.source}" if self.source else "")
        if self.ok:
            lines = [head, "  all invariants hold"]
        else:
            lines = [head, f"  {self.n_bad} point(s) violate invariants:"]
            for (alg, size, cap), vs in sorted(self.violations.items()):
                for v in vs:
                    lines.append(f"    {alg}@{size}^3 {cap:g}W  [{v.code}] {v.message}")
            counts = ", ".join(f"{c}={n}" for c, n in self.counts_by_code().items())
            lines.append(f"  by code: {counts}")
        if self.quarantined:
            lines.append(f"  quarantined {self.quarantined} point(s) in the store")
        return "\n".join(lines)


class PointValidator:
    """Checks sweep points against the machine spec's physics.

    The tolerances (:data:`POWER_ABS_TOL_W`, :data:`POWER_REL_TOL`,
    :data:`TIME_REL_TOL`, :data:`RATIO_REL_TOL`) sit comfortably outside
    anything the clean simulator produces (its worst legitimate point
    sits 0.06 W *under* its cap and its runtimes are strictly monotone),
    so a violation is always a real defect or an injected fault, never
    noise.  The one exception is ``cap-below-floor``: a cap below the
    spec's RAPL floor, which the controller clamps up to the floor, so
    the point honours the floor but not the cap it was asked for.
    """

    def __init__(self, spec: MachineSpec | None = None):
        self.spec = spec if spec is not None else BROADWELL_E5_2695V4
        # Reference-cycle IPC tops out at the best-case issue rate scaled
        # by turbo/base (APERF can run that much faster than REF_TSC).
        self._ipc_max = (1.0 / float(min(self.spec.cpi_vector()))) * (
            self.spec.f_turbo / self.spec.f_base
        ) * 1.05
        self._freq_min = self.spec.f_min * MIN_DUTY * 0.95
        self._freq_max = self.spec.f_turbo * 1.001

    # ------------------------------------------------------------ per point
    def _check_run(self, r, finite: dict[str, float], where: str = "") -> list[Violation]:
        """The invariants a static point and a governed epoch share: the
        ``finite`` fields are finite, then time/energy/power positive,
        power at or under ``r.cap_w`` (``cap-below-floor`` when the cap
        is below the RAPL floor and the power is within the floor's own
        tolerance) and frequency within the spec.
        ``where`` prefixes each message."""
        bad = [name for name, v in finite.items() if not math.isfinite(v)]
        if bad:
            # Range checks against NaN are meaningless.
            return [Violation("non-finite", f"{where}non-finite field(s): {', '.join(bad)}")]
        out: list[Violation] = []
        if r.time_s <= 0 or r.energy_j <= 0 or r.power_w <= 0:
            out.append(
                Violation(
                    "non-positive",
                    f"{where}time/energy/power must be positive "
                    f"(got {r.time_s:g}s, {r.energy_j:g}J, {r.power_w:g}W)",
                )
            )
        limit = _power_limit(r.cap_w)
        if r.power_w > limit:
            floor = self.spec.rapl_floor_watts
            if r.cap_w < floor and r.power_w <= _power_limit(floor):
                code = "cap-below-floor"
                message = (
                    f"cap {r.cap_w:g}W is below the RAPL floor {floor:g}W, which the "
                    f"controller enforces instead (modeled power {r.power_w:.2f}W)"
                )
            else:
                code = "power-over-cap"
                message = (
                    f"modeled power {r.power_w:.2f}W exceeds cap {r.cap_w:g}W "
                    f"(tolerance {limit - r.cap_w:.2f}W)"
                )
            out.append(Violation(code, f"{where}{message}"))
        if not (self._freq_min <= r.freq_ghz <= self._freq_max):
            out.append(
                Violation(
                    "freq-out-of-range",
                    f"{where}effective frequency {r.freq_ghz:.3f}GHz outside "
                    f"[{self._freq_min:.3f}, {self._freq_max:.3f}]GHz",
                )
            )
        return out

    def check_point(self, p: RunPoint) -> list[Violation]:
        """All single-point invariants (no cross-cap context needed)."""
        finite = {f: getattr(p, f) for f in _FINITE_FIELDS}
        for r in ("pratio", "tratio", "fratio"):
            finite[f"ratios.{r}"] = getattr(p.ratios, r)
        out = self._check_run(p, finite)
        if out and out[0].code == "non-finite":
            return out
        if not (0.0 < p.ipc <= self._ipc_max):
            out.append(
                Violation(
                    "ipc-out-of-range",
                    f"IPC {p.ipc:.3f} outside (0, {self._ipc_max:.2f}]",
                )
            )
        if not (0.0 <= p.llc_miss_rate <= 1.0):
            out.append(
                Violation(
                    "llc-rate-out-of-range",
                    f"LLC miss rate {p.llc_miss_rate:.4f} outside [0, 1]",
                )
            )
        return out

    # ------------------------------------------------------------ per group
    def check_group(self, points: list[RunPoint]) -> dict[PointKey, list[Violation]]:
        """Per-point checks plus cross-cap invariants for one
        (algorithm, size) group.  Returns only keys with violations."""
        out: dict[PointKey, list[Violation]] = {p.key: self.check_point(p) for p in points}
        clean = [p for p in points if not out[p.key]]

        # Runtime monotone as the cap drops.
        chain = sorted(clean, key=lambda p: -p.cap_w)
        for p, good in _faster_than_capacity_allows(chain):
            out[p.key].append(
                Violation(
                    "runtime-not-monotone",
                    f"time {p.time_s:.6g}s at {p.cap_w:g}W is below "
                    f"{good.time_s:.6g}s at {good.cap_w:g}W",
                )
            )

        # Stored ratios must agree with stored measurements: tratio was
        # computed from the same times, so time_s ≈ tratio × baseline
        # time.  If most of the group disagrees with the baseline, the
        # baseline itself is the corrupt one.
        if len(chain) >= 2:
            base, rest = chain[0], chain[1:]
            mismatched = [
                p for p in rest
                if abs(p.time_s - p.tratio * base.time_s)
                > RATIO_REL_TOL * max(p.time_s, base.time_s)
            ]
            if len(mismatched) > len(rest) / 2:
                out[base.key].append(
                    Violation(
                        "baseline-inconsistent",
                        f"baseline time {base.time_s:.6g}s at {base.cap_w:g}W disagrees "
                        f"with the stored tratio of {len(mismatched)}/{len(rest)} "
                        f"points in the group",
                    )
                )
            else:
                for p in mismatched:
                    out[p.key].append(
                        Violation(
                            "ratio-inconsistent",
                            f"time {p.time_s:.6g}s disagrees with stored "
                            f"tratio {p.tratio:.6g} × baseline {base.time_s:.6g}s",
                        )
                    )
        return {k: v for k, v in out.items() if v}

    # ------------------------------------------------------------ per epoch
    def check_epochs(self, epochs) -> dict[PointKey, list[Violation]]:
        """The static invariants restated piecewise for governed runs.

        Under a governor the cap is constant only *within* one control
        epoch, so the global contracts become per-epoch ones.  ``epochs``
        is a sequence of :class:`~repro.insitu.governors.GovernorEpoch`
        records (any objects with the same fields work); each is checked
        like a static point against its own cap, then two cross-epoch
        contracts apply per control method:

        * epochs programmed with the *same* setting must agree on time
          (the simulator is deterministic, so disagreement means a
          corrupted record);
        * across settings, runtime is monotone as the granted capacity
          fraction drops — capping can only slow the same work down.

        Keys are ``(control, epoch_index, cap_w)``; only violating keys
        are returned.
        """

        def key(e) -> PointKey:
            return (e.control, int(e.epoch), float(e.cap_w))

        out: dict[PointKey, list[Violation]] = {}
        clean = []
        for e in epochs:
            vs = self._check_run(
                e, {f: getattr(e, f) for f in _FINITE_FIELDS[:4]}, where=f"epoch {e.epoch}: "
            )
            if vs:
                out[key(e)] = vs
            else:
                clean.append(e)

        # Group epochs by programmed setting within each control method.
        groups: dict[tuple, list] = {}
        for e in clean:
            setting = (
                e.control,
                round(float(e.cap_w), 9),
                None if e.f_ceiling_ghz is None else round(float(e.f_ceiling_ghz), 9),
                round(float(e.duty_cap), 9),
            )
            groups.setdefault(setting, []).append(e)

        # Same setting ⇒ same time: the simulator is deterministic and a
        # governed run re-executes the same profile every epoch.
        for members in groups.values():
            base = members[0]
            for e in members[1:]:
                if abs(e.time_s - base.time_s) > RATIO_REL_TOL * base.time_s:
                    out.setdefault(key(e), []).append(
                        Violation(
                            "epoch-inconsistent",
                            f"epoch {e.epoch} time {e.time_s:.6g}s disagrees with "
                            f"epoch {base.epoch} at the same setting "
                            f"({base.time_s:.6g}s)",
                        )
                    )

        # Monotone in granted capacity, walked per control method from
        # the most to the least capacity (the governor's fraction orders
        # every control method's actuator monotonically).
        by_control: dict[str, list] = {}
        for members in groups.values():
            by_control.setdefault(members[0].control, []).append(members[0])
        for reps in by_control.values():
            chain = sorted(reps, key=lambda e: -e.fraction)
            for e, good in _faster_than_capacity_allows(chain):
                out.setdefault(key(e), []).append(
                    Violation(
                        "runtime-not-monotone",
                        f"epoch {e.epoch} time {e.time_s:.6g}s at capacity "
                        f"fraction {e.fraction:g} is below {good.time_s:.6g}s "
                        f"at fraction {good.fraction:g}",
                    )
                )
        return out

    # ----------------------------------------------------------- aggregates
    def check_result(self, result: StudyResult) -> ValidationReport:
        """Validate every (algorithm, size) group of a result."""
        groups: dict[tuple[str, int], list[RunPoint]] = {}
        for p in result.points:
            groups.setdefault((p.algorithm, p.size), []).append(p)
        report = ValidationReport(n_points=len(result.points), source=result.config_name)
        for pts in groups.values():
            report.violations.update(self.check_group(pts))
        return report


def validate_store(path: str | Path, *, quarantine: bool = False) -> ValidationReport:
    """Validate a sweep store on disk (the engine behind ``repro doctor``)
    against the machine spec its header names
    (:attr:`~repro.core.store.ResultStore.spec`); a header written before
    it carried the sweep context is checked against the default spec.

    With ``quarantine=True``, violating points become quarantine records
    (with reasons) in one atomic rewrite of the store, so it validates
    clean afterwards; the default is a read-only report.  A path with no
    file raises ``FileNotFoundError``: it is no store, not an empty one.
    """
    store = ResultStore.existing(path)
    report = PointValidator(store.spec).check_result(store.load_result())
    report.source = str(path)
    if quarantine and report.violations:
        report.quarantined = store.remove(report.violations, reasons=report.violations)
    return report
