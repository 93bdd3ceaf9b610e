"""Stable facade over the study machinery.

Everything a downstream consumer needs, in a handful of calls::

    import repro

    result = repro.run_study(repro.StudyRequest("phase3", workers=8,
                                                store="sweep.jsonl"))
    repro.api.regenerate_tables(csv_dir="results/")
    later = repro.load_result("sweep.jsonl")
    classes = repro.classify_study(later)

    report = repro.api.doctor("sweep.jsonl")          # invariant audit
    gate = repro.api.lint()                           # static-analysis gate
    chaos = repro.api.run_chaos("phase1", plan="default",
                                store="chaos.jsonl")  # fault-injection drill

The facade hides the moving parts — :class:`~repro.core.engine.SweepEngine`
and :class:`~repro.core.store.ResultStore` — behind a small surface that
is kept stable across refactors.  Study phases can be named by string
(``"phase1"``/``"phase2"``/``"phase3"``/``"table1"``/``"table2"``/
``"table3"``) or passed as explicit
:class:`~repro.core.study.StudyConfig` grids.  Named phases respect the
``REPRO_MAX_SIZE`` environment cap; explicit configs are taken verbatim.
Every study, query and served job runs on the study's one dataset,
:data:`~repro.core.profiles.DATASET_RECIPE`; no call here selects another.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields
from pathlib import Path

from .core.advisor import PowerAdvisor
from .core.classify import Classification, classify_result
from .core.engine import SweepEngine
from .core.metrics import SLOWDOWN_THRESHOLD
from .core.profiles import DEFAULT_CACHE_PATH, ProfileCache
from .core.runner import DEFAULT_VIZ_CYCLES, RunPoint, StudyResult
from .core.store import ResultStore
from .core.study import PHASE_NAMES, StudyConfig, resolve_config
from .core.validate import ValidationReport, validate_store
from .faults import PLANS, get_plan, run_chaos, run_governor_chaos, run_service_chaos
from .lint import LintReport
from .lint import lint_paths as _lint_paths
from .machine.presets import ALL_PRESETS
from .serve import DEFAULT_SPOOL, SubmitReceipt, SweepService

__all__ = [
    "StudyRequest",
    "AdviseRequest",
    "AdviseResponse",
    "advise",
    "advisor",
    "run_study",
    "load_result",
    "classify_study",
    "regenerate_tables",
    "resolve_config",
    "run_chaos",
    "run_service_chaos",
    "run_governor_chaos",
    "doctor",
    "lint",
    "PLANS",
    "get_plan",
    "submit_study",
]


@dataclass(frozen=True)
class StudyRequest:
    """Everything :func:`run_study` needs, as one typed value, so call
    sites can build, store, and pass sweep configurations as data.
    Fields other than ``config``, ``resume`` and ``cache`` are
    :class:`~repro.core.engine.SweepEngine`'s keywords; ``cache`` is its
    ``profile_cache``.
    """

    config: StudyConfig | str = "phase2"
    workers: int | None = 0
    store: ResultStore | str | Path | None = None
    resume: bool = True
    cache: str | Path | None = None
    spec: object = None
    n_cycles: int = DEFAULT_VIZ_CYCLES
    progress: object = None
    trace: object = None
    samples: bool = False


def run_study(config: StudyRequest | StudyConfig | str = "phase2") -> StudyResult:
    """Run a study sweep and return its points.

    Takes a single :class:`StudyRequest`::

        repro.run_study(StudyRequest(config="phase3", workers=8,
                                     store="sweep.jsonl"))

    or a bare phase name / :class:`StudyConfig`, run with the request's
    defaults.

    ``workers`` > 1 fans profile executions out across processes;
    ``store`` makes the sweep resumable (see
    :mod:`repro.core.engine`).  The default is serial and in-memory —
    identical output, no side effects.  ``trace``/``samples`` switch on
    the telemetry layer (:mod:`repro.obs`): spans + events to a trace
    file, and each point's segment records in its store line, read back
    as its power/frequency sample stream.
    """
    request = config if isinstance(config, StudyRequest) else StudyRequest(config=config)
    engine = SweepEngine(
        request.spec,
        n_cycles=request.n_cycles,
        workers=request.workers,
        store=request.store,
        profile_cache=request.cache,
        progress=request.progress,
        trace=request.trace,
        samples=request.samples,
    )
    return engine.run(resolve_config(request.config), resume=request.resume)


# --------------------------------------------------------------------- advise
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

    @classmethod
    def from_dict(cls, d: dict) -> "AdviseResponse":
        return cls(
            algorithm=str(d["algorithm"]),
            size=int(d["size"]),
            machine=str(d["machine"]),
            cap_w=float(d["cap_w"]),
            recommended_cap_w=float(d["recommended_cap_w"]),
            predicted_time_s=float(d["predicted_time_s"]),
            predicted_energy_j=float(d["predicted_energy_j"]),
            predicted_power_w=float(d["predicted_power_w"]),
            predicted_tratio=float(d["predicted_tratio"]),
            power_saved_w=float(d["power_saved_w"]),
            tolerance=float(d["tolerance"]),
            cache_hit=bool(d["cache_hit"]),
            latency_s=float(d["latency_s"]),
            point=RunPoint.from_dict(d["point"]),
        )


def advisor(
    *,
    machine: str = "broadwell",
    cache: ProfileCache | str | Path | None = None,
    n_cycles: int = DEFAULT_VIZ_CYCLES,
    tolerance: float = SLOWDOWN_THRESHOLD,
) -> PowerAdvisor:
    """A configured :class:`~repro.core.advisor.PowerAdvisor`.

    The facade's construction point for the advise service: ``machine``
    names a preset, ``cache`` the ledger store (a path or a
    :class:`~repro.core.profiles.ProfileCache`; None keeps it in
    memory).  A sweep's cache file serves it as it is, and advisors for
    different machines can share one store: no machine enters a
    ledger.  Any number of handles may write one file; advisors that
    share one instance also share its ledgers in memory, so one query's
    ledger is a hit for the next query on any machine.
    """
    if machine not in ALL_PRESETS:
        raise ValueError(
            f"unknown machine preset {machine!r}; expected one of {sorted(ALL_PRESETS)}"
        )
    return PowerAdvisor(
        ALL_PRESETS[machine],
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
    cache) pair serves the query, so repeated calls stay warm.  The
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
    if request.machine not in ALL_PRESETS:
        raise ValueError(
            f"unknown machine preset {request.machine!r}; "
            f"expected one of {sorted(ALL_PRESETS)}"
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


# ----------------------------------------------------------------- service
def submit_study(
    config: StudyConfig | str = "phase1",
    *,
    spool: str | Path = DEFAULT_SPOOL,
    n_cycles: int = DEFAULT_VIZ_CYCLES,
    max_retries: int = 2,
    service: SweepService | None = None,
) -> SubmitReceipt:
    """Durably enqueue one study for the sweep service (or be shed).

    Phase names are resolved here — ``REPRO_MAX_SIZE`` applies at
    submission, and the WAL records the exact grid.  The returned
    :class:`~repro.serve.service.SubmitReceipt` says whether the job was
    accepted (``queued``) or shed (``queue-full`` when the queue is at
    its limit, ``degraded`` when the circuit breaker is open).  An
    accepted receipt is durable: the submit record is fsynced before
    this returns, so the job survives any daemon crash.
    """
    svc = service if service is not None else SweepService(spool)
    return svc.submit(resolve_config(config), n_cycles=n_cycles, max_retries=max_retries)


def doctor(path: str | Path, *, quarantine: bool = False) -> ValidationReport:
    """Validate an existing store file against the physical invariants
    of the machine spec its header names (a header written before it
    carried the sweep context: the default spec).

    With ``quarantine=True`` violating points become quarantine records
    of the store, so its points validate clean.  A missing file raises
    ``FileNotFoundError``.
    """
    return validate_store(path, quarantine=quarantine)


def lint(paths=None, *, rules=None, only=None) -> LintReport:
    """Run the contract-aware static-analysis gate (``repro lint``).

    Lints the given files/directories (default: the installed ``repro``
    package) against the RPR rule set and returns a
    :class:`~repro.lint.runner.LintReport`; ``report.ok`` is the gate.
    A path that does not exist, or paths holding no ``*.py`` file,
    raise ``FileNotFoundError``.  ``only`` narrows *reporting* to the
    given files while the whole target set is still analysed
    (``repro lint --changed``).
    """
    return _lint_paths(paths, rules=rules, only=only)


def load_result(path: str | Path) -> StudyResult:
    """Load the points of a sweep store (``--store`` output) as a
    :class:`StudyResult`; a missing file raises ``FileNotFoundError``."""
    return ResultStore.existing(path).load_result()


def classify_study(
    result: StudyResult,
    *,
    size: int | None = None,
    sensitive_cap_w: float = 70.0,
) -> dict[str, Classification]:
    """Classify every algorithm in a result (power opportunity/sensitive).

    With ``size=None`` a single-size result uses its size and a
    multi-size result uses its largest (the paper classifies at the
    biggest grid, where the signal is strongest).
    """
    if size is None:
        sizes = result.sizes
        size = sizes[-1] if sizes else None
    return classify_result(result, size=size, sensitive_cap_w=sensitive_cap_w)


def regenerate_tables(
    tables: tuple[str, ...] = ("table1", "table2", "table3"),
    *,
    cache: str | Path | None = DEFAULT_CACHE_PATH,
    csv_dir: str | Path | None = None,
    n_cycles: int = DEFAULT_VIZ_CYCLES,
    workers: int = 0,
) -> dict[str, StudyResult]:
    """Recompute the paper's tables; optionally emit CSV artifacts."""
    from .harness.emit import result_to_csv

    unknown = set(tables) - set(PHASE_NAMES)
    if unknown:
        raise ValueError(f"unknown table(s) {sorted(unknown)}; expected {PHASE_NAMES}")
    engine = SweepEngine(workers=workers, profile_cache=cache, n_cycles=n_cycles)
    out: dict[str, StudyResult] = {}
    for name in tables:
        out[name] = engine.run(resolve_config(name))
        if csv_dir is not None:
            d = Path(csv_dir)
            d.mkdir(parents=True, exist_ok=True)
            result_to_csv(out[name], d / f"{name}.csv")
    return out
