"""The typed advise protocol: one pricing query and its answer.

``repro advise --serve`` speaks it one JSON line at a time; in Python::

    import repro

    resp = repro.advise(repro.AdviseRequest("contour", 128, cap_w=60.0))
    print(resp.recommended_cap_w, resp.predicted_tratio, resp.power_saved_w)

:func:`advisor` builds a :class:`~repro.core.advisor.PowerAdvisor` for a
named machine preset, and :func:`advise` answers one
:class:`AdviseRequest` with an :class:`AdviseResponse`.  Every query
prices the study's one dataset, :data:`~repro.core.profiles.DATASET_RECIPE`.

A study runs where its code lives:
``SweepEngine(...).run(resolve_config("phase2"))`` (:mod:`repro.core.engine`,
:mod:`repro.core.study`), reloaded by
``ResultStore.existing(path).load_result()`` and classified by
:func:`~repro.core.classify.classify_result`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields
from pathlib import Path

from .core.advisor import PowerAdvisor
from .core.metrics import SLOWDOWN_THRESHOLD
from .core.profiles import ProfileCache
from .core.runner import DEFAULT_VIZ_CYCLES, RunPoint
from .machine.presets import ALL_PRESETS
from .machine.spec import MachineSpec

__all__ = [
    "AdviseRequest",
    "AdviseResponse",
    "advise",
    "advisor",
]


@dataclass(frozen=True)
class AdviseRequest:
    """One pricing query: algorithm + size, optionally a cap to price.

    ``cap_w=None`` prices the *recommended* (deepest tolerable) cap;
    ``machine`` names a preset from
    :data:`repro.machine.presets.ALL_PRESETS`.
    """

    algorithm: str
    size: int
    cap_w: float | None = None
    tolerance: float = SLOWDOWN_THRESHOLD
    machine: str = "broadwell"

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "size": self.size,
            "cap_w": self.cap_w,
            "tolerance": self.tolerance,
            "machine": self.machine,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AdviseRequest":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown advise request field(s) {sorted(unknown)}")
        if "algorithm" not in d or "size" not in d:
            raise ValueError("advise request needs 'algorithm' and 'size'")
        out = dict(d)
        out["algorithm"] = str(out["algorithm"])
        out["size"] = int(out["size"])
        if out.get("cap_w") is not None:
            out["cap_w"] = float(out["cap_w"])
        if "tolerance" in out:
            out["tolerance"] = float(out["tolerance"])
        if "machine" in out:
            out["machine"] = str(out["machine"])
        return cls(**out)


@dataclass(frozen=True)
class AdviseResponse:
    """A pricing query's answer: the priced point plus the recommendation."""

    algorithm: str
    size: int
    machine: str
    cap_w: float                 # the cap the point below is priced at
    recommended_cap_w: float     # deepest cap within the slowdown tolerance
    predicted_time_s: float
    predicted_energy_j: float
    predicted_power_w: float
    predicted_tratio: float
    power_saved_w: float         # headroom released vs. the TDP baseline
    tolerance: float
    cache_hit: bool              # False when this query executed the algorithm
    latency_s: float
    point: RunPoint              # full-fidelity measurements at cap_w

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "size": self.size,
            "machine": self.machine,
            "cap_w": self.cap_w,
            "recommended_cap_w": self.recommended_cap_w,
            "predicted_time_s": self.predicted_time_s,
            "predicted_energy_j": self.predicted_energy_j,
            "predicted_power_w": self.predicted_power_w,
            "predicted_tratio": self.predicted_tratio,
            "power_saved_w": self.power_saved_w,
            "tolerance": self.tolerance,
            "cache_hit": self.cache_hit,
            "latency_s": self.latency_s,
            "point": self.point.to_dict(),
        }


def _preset(machine: str) -> MachineSpec:
    try:
        return ALL_PRESETS[machine]
    except KeyError:
        raise ValueError(
            f"unknown machine preset {machine!r}; expected one of {sorted(ALL_PRESETS)}"
        ) from None


def advisor(
    *,
    machine: str = "broadwell",
    cache: ProfileCache | str | Path | None = None,
    n_cycles: int = DEFAULT_VIZ_CYCLES,
    tolerance: float = SLOWDOWN_THRESHOLD,
) -> PowerAdvisor:
    """A configured :class:`~repro.core.advisor.PowerAdvisor`.

    ``machine`` names a preset, ``cache`` the ledger store (a path or a
    :class:`~repro.core.profiles.ProfileCache`; None keeps it in
    memory).  A sweep's cache file serves it as it is, and advisors for
    different machines can share one store: no machine enters a
    ledger.  Any number of handles may write one file; advisors that
    share one instance also share its ledgers in memory, so one query's
    ledger is a hit for the next query on any machine.
    """
    return PowerAdvisor(
        _preset(machine),
        cache=cache,
        n_cycles=n_cycles,
        tolerance=tolerance,
    )


#: Process-wide advisors for the zero-setup ``api.advise()`` path, one
#: per (machine, cache) pair so repeat queries stay warm, over one
#: ledger store per cache value (``None`` included) shared by every
#: machine's advisor.
_ADVISORS: dict[tuple[str, str | None], PowerAdvisor] = {}
_STORES: dict[str | None, ProfileCache] = {}
_ADVISORS_LOCK = threading.Lock()


def _shared_advisor(machine: str, cache: str | Path | None) -> PowerAdvisor:
    where = str(cache) if cache is not None else None
    with _ADVISORS_LOCK:
        adv = _ADVISORS.get((machine, where))
        if adv is None:
            store = _STORES.get(where)
            if store is None:
                store = _STORES[where] = ProfileCache(cache)
            adv = _ADVISORS[(machine, where)] = advisor(machine=machine, cache=store)
        return adv


def advise(
    request: AdviseRequest | dict | None = None,
    *,
    advisor: PowerAdvisor | None = None,
    cache: str | Path | None = None,
    **kwargs,
) -> AdviseResponse:
    """Answer one pricing query: "what does X at S cost under cap C?"

    Typed form::

        repro.api.advise(AdviseRequest(algorithm="contour", size=128))

    Keyword convenience (equivalent, not deprecated)::

        repro.api.advise(algorithm="contour", size=128, cap_w=60.0)

    With no explicit ``advisor``, a process-wide advisor per (machine,
    cache) pair serves the query, so repeated calls stay warm.  An
    explicit ``advisor`` must price on the request's machine preset,
    or the query raises ``ValueError`` naming both machines.  The
    first query for an (algorithm, size), on any machine, executes the
    real algorithm once; every later one reprices its cached ledger
    closed-form.
    """
    if request is None:
        request = AdviseRequest(**kwargs)
    elif kwargs:
        raise TypeError(
            f"advise(request, ...) takes no extra keywords; got {sorted(kwargs)}"
        )
    if isinstance(request, dict):
        request = AdviseRequest.from_dict(request)
    spec = _preset(request.machine)
    if advisor is not None and advisor.spec is not spec:
        raise ValueError(
            f"advise request names machine {request.machine!r} ({spec.name}), "
            f"but its advisor prices on {advisor.spec.name!r}"
        )
    adv = advisor if advisor is not None else _shared_advisor(request.machine, cache)
    advice = adv.advise(
        request.algorithm,
        request.size,
        cap_w=request.cap_w,
        tolerance=request.tolerance,
    )
    point = advice.point
    rec = advice.recommendation
    return AdviseResponse(
        algorithm=request.algorithm,
        size=int(request.size),
        machine=request.machine,
        cap_w=point.cap_w,
        recommended_cap_w=rec.cap_w,
        predicted_time_s=point.time_s,
        predicted_energy_j=point.energy_j,
        predicted_power_w=point.power_w,
        predicted_tratio=point.tratio,
        power_saved_w=rec.power_saved_w,
        tolerance=request.tolerance,
        cache_hit=advice.cache_hit,
        latency_s=advice.latency_s,
        point=point,
    )
