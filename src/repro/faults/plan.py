"""Seedable, deterministic fault plans: one registry for every chaos drill.

A :class:`FaultPlan` describes *which* faults the sweep drill injects
and *how often*, at three layers of the stack:

* **machine** — RAPL cap-enforcement jitter, transient cap-not-met
  excursions, 100 ms power-sample dropout and noise (consumed by
  :class:`repro.faults.machine.MachineFaultInjector`);
* **engine** — worker crashes, hang-past-timeout, flaky transient
  errors (consumed by :meth:`FaultPlan.wrap_job`, which the
  :class:`~repro.core.engine.SweepEngine` calls per job attempt);
* **measurement/store** — sensor-corrupted points that the validation
  gate must quarantine (:meth:`FaultPlan.corrupt_point`) and a torn
  store tail (consumed by :mod:`repro.faults.storefx` / the chaos
  driver).

Every decision is a pure function of ``(seed, site, key)`` — a SHA-256
draw, no global RNG state — so a fault schedule is reproducible across
processes, worker pools, and resumed sweeps: the retry of a crashed job
sees the *same* plan but a different attempt key, which is what lets a
bounded-fault plan guarantee eventual completion.

The service drill's :class:`ServiceFaultInjector` and the governor
drill's :class:`GovernorFaultPlan` draw through the same function.  All
named plans live in one registry, :data:`PLANS` (``{drill: {name:
plan}}``), behind one lookup, :func:`get_plan`, which is also the one
way to re-seed a plan.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field, replace

__all__ = [
    "FaultPlan",
    "GovernorFaultPlan",
    "InjectedFault",
    "PLANS",
    "ServiceFaultInjector",
    "get_plan",
]


class InjectedFault(RuntimeError):
    """A deliberately injected failure (never a real defect)."""

    #: Marker the engine uses to count injected faults without
    #: importing this module (keeps ``repro.core`` below ``repro.faults``).
    injected = True


def _unit(seed: int, site: str, key: str, lane: int = 0) -> float:
    """Deterministic uniform draw in [0, 1) for one (site, key) decision."""
    digest = hashlib.sha256(f"{seed}|{site}|{key}|{lane}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultPlan:
    """What to break, how hard, and under which seed.

    All probabilities are per-decision (per job attempt, per sample,
    per control window, per point); zero disables the site entirely, so
    the default-constructed plan is a no-op.
    """

    name: str = "custom"
    seed: int = 0

    # ------------------------------------------------------- machine layer
    cap_jitter_w: float = 0.0      # sigma (W) of per-decision cap-enforcement jitter
    cap_excursion_p: float = 0.0   # P(transient cap-not-met excursion per decision)
    sample_dropout_p: float = 0.0  # P(a 100 ms power sample is lost)
    sample_noise_w: float = 0.0    # sigma (W) of noise spikes on delivered samples

    # -------------------------------------------------------- engine layer
    worker_crash_p: float = 0.0    # P(injected crash per job attempt)
    worker_hang_p: float = 0.0     # P(injected hang per job attempt)
    hang_s: float = 0.5            # how long a hung worker stalls
    max_faults_per_job: int = 1    # attempts that may fault; later retries run clean

    # ------------------------------------------------- measurement / store
    point_corrupt_p: float = 0.0   # P(a completed point is sensor-corrupted)
    torn_tail: bool = False        # tear the store's final record once (chaos driver)

    def __post_init__(self) -> None:
        for f in ("cap_excursion_p", "sample_dropout_p", "worker_crash_p",
                  "worker_hang_p", "point_corrupt_p"):
            p = getattr(self, f)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{f} must be a probability in [0, 1], got {p}")
        if self.max_faults_per_job < 0:
            raise ValueError("max_faults_per_job must be non-negative")

    # ----------------------------------------------------------- decisions
    def decide(self, site: str, key: str, p: float) -> bool:
        """Deterministic Bernoulli(p) draw for one (site, key)."""
        return p > 0.0 and _unit(self.seed, site, key) < p

    def gauss(self, site: str, key: str, sigma: float) -> float:
        """Deterministic N(0, sigma) draw (Box–Muller from two hash lanes)."""
        if sigma <= 0.0:
            return 0.0
        u1 = max(_unit(self.seed, site, key, lane=1), 1e-15)
        u2 = _unit(self.seed, site, key, lane=2)
        return sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    # -------------------------------------------------------- engine hooks
    def wrap_job(self, base, attempt: int):
        """Wrap a profile-job body with this plan's engine-layer faults.

        The wrapper is picklable (so it survives the trip into a pool
        worker) as long as ``base`` is.
        """
        return _FaultedJob(plan=self, base=base, attempt=int(attempt))

    def corrupt_point(self, point):
        """Return ``point``, possibly sensor-corrupted under this plan.

        Corruption modes rotate deterministically per point: an
        impossible power spike, a runtime collapse that breaks cap
        monotonicity, or a dead (NaN) IPC counter — each one a
        violation :mod:`repro.core.validate` must catch.
        """
        key = f"{point.algorithm}@{point.size}@{point.cap_w:g}"
        if not self.decide("point-corrupt", key, self.point_corrupt_p):
            return point
        d = point.to_dict()
        mode = int(_unit(self.seed, "point-corrupt-mode", key) * 3)
        if mode == 0:
            d["power_w"] = d["cap_w"] * 4.0
        elif mode == 1:
            d["time_s"] = d["time_s"] * 1e-3
        else:
            d["ipc"] = float("nan")
        return type(point).from_dict(d)


@dataclass(frozen=True)
class _FaultedJob:
    """Picklable profile-job wrapper carrying the plan into pool workers."""

    plan: FaultPlan
    base: object
    attempt: int

    def __call__(self, job):
        p = self.plan
        key = f"{job.algorithm}@{job.size}#{self.attempt}"
        if self.attempt < p.max_faults_per_job:
            if p.decide("worker-hang", key, p.worker_hang_p):
                # A hang, not an error: stall past the engine's timeout,
                # then finish normally — the abandoned future's result
                # must be discarded, exactly like a live-locked worker.
                time.sleep(p.hang_s)
            if p.decide("worker-crash", key, p.worker_crash_p):
                raise InjectedFault(
                    f"injected worker crash in {job.algorithm}@{job.size} "
                    f"(attempt {self.attempt})"
                )
        return self.base(job)


@dataclass
class ServiceFaultInjector:
    """Seeded, budgeted fault decisions for the supervisor's hooks.

    Unlike :class:`FaultPlan` this counts the faults it fires.  The
    counters are ``init=False`` fields, so ``dataclasses.replace`` (and
    :func:`get_plan`) hands back a fresh injector; each service drill
    fires such a copy and leaves the caller's object untouched.

    A draw keys on the job's index in the order :meth:`order_jobs` was
    given (a drill's submission order), plus the delivery's attempt for
    crashes and stalls, so a seeded plan makes the same decisions
    whatever random ids the jobs got.  A job outside that order keys on
    its id.
    """

    name: str = "custom"
    seed: int = 20107

    job_crash_p: float = 0.0        # P(a delivery crashes mid-study)
    crash_after_groups: int = 1     # profile completions before the crash fires
    max_crashes: int = 2            # total crash budget (keeps completion reachable)
    heartbeat_stall_p: float = 0.0  # P(a delivery's heartbeats go silent)
    max_stalls: int = 1             # total stall budget (lease-expiry budget is finite)
    duplicate_delivery_p: float = 0.0  # P(a running job is redelivered once)
    torn_wal: bool = False          # cut the WAL's last record between daemons

    crashes_injected: int = field(default=0, init=False)
    stalls_injected: int = field(default=0, init=False)
    duplicates_injected: int = field(default=0, init=False)
    _dup_fired: set = field(default_factory=set, init=False, repr=False)
    _index: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        for f in ("job_crash_p", "heartbeat_stall_p", "duplicate_delivery_p"):
            p = getattr(self, f)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{f} must be a probability, got {p}")

    def order_jobs(self, job_ids) -> None:
        """Key later draws on each job's index in ``job_ids``."""
        self._index = {job_id: i for i, job_id in enumerate(job_ids)}

    def _job_key(self, job_id: str) -> str:
        return str(self._index.get(job_id, job_id))

    def _decide(self, site: str, key: str, p: float) -> bool:
        return p > 0.0 and _unit(self.seed, site, key) < p

    # ----------------------------------------------------- supervisor hooks
    def wrap_progress(self, job_id: str, attempt: int, progress):
        """Crash this delivery after N profile completions (maybe)."""
        if self.crashes_injected >= self.max_crashes or not self._decide(
            "job-crash", f"{self._job_key(job_id)}|{attempt}", self.job_crash_p
        ):
            return progress
        seen = {"n": 0}

        def crashing(event: dict) -> None:
            progress(event)
            if event.get("kind") != "profile-done":
                return
            seen["n"] += 1
            if seen["n"] >= self.crash_after_groups:
                self.crashes_injected += 1
                raise InjectedFault(
                    f"service chaos: crashed delivery of {job_id} "
                    f"(attempt {attempt}, after {seen['n']} profile(s))"
                )

        return crashing

    def stall_heartbeat(self, job_id: str, attempt: int) -> bool:
        """Silence this delivery's lease extensions (maybe)."""
        if self.stalls_injected >= self.max_stalls or not self._decide(
            "heartbeat-stall", f"{self._job_key(job_id)}|{attempt}", self.heartbeat_stall_p
        ):
            return False
        self.stalls_injected += 1
        return True

    def duplicate_claim(self, job_id: str) -> bool:
        """Redeliver a running job to a second worker (once per job)."""
        if job_id in self._dup_fired or not self._decide(
            "duplicate-delivery", self._job_key(job_id), self.duplicate_delivery_p
        ):
            return False
        self._dup_fired.add(job_id)
        self.duplicates_injected += 1
        return True


@dataclass(frozen=True)
class GovernorFaultPlan:
    """What to do to a governor's signal feed, how hard, under which seed."""

    name: str
    seed: int = 2019
    #: Probability each non-initial sample is lost (deterministic per
    #: ``(seed, index)`` — same plan, same holes).
    signal_dropout_p: float = 0.0
    #: Signal offset added to the second half of the trace: a provider
    #: re-basing its series mid-run.
    step_jump: float = 0.0
    #: Fraction of the trace kept in the truncation drill (the governor
    #: runs off the end of its forecast and must hold the last sample).
    truncate_frac: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.signal_dropout_p <= 1.0):
            raise ValueError("signal_dropout_p must be in [0, 1]")
        if not (0.0 < self.truncate_frac <= 1.0):
            raise ValueError("truncate_frac must be in (0, 1]")

    def dropout_indices(self, n_samples: int) -> list[int]:
        """Which sample indices this plan drops (index 0 never drops)."""
        if self.signal_dropout_p <= 0.0:
            return []
        return [
            i
            for i in range(1, n_samples)
            if _unit(self.seed, "signal-dropout", str(i)) < self.signal_dropout_p
        ]


def _by_name(*plans) -> dict:
    return {p.name: p for p in plans}


#: Every drill's named plans, ``PLANS[drill][name]`` with the drills
#: ``sweep`` (``repro chaos``), ``service`` (``--service``) and
#: ``governor`` (``--governor``).  The sweep drill's ``default`` plan is
#: the acceptance scenario: worker crashes + sample dropout + one torn
#: store tail, all recoverable (``max_faults_per_job=1`` bounds crashes
#: per job, so a retry budget ≥ 1 always completes the sweep).  Every
#: service fault class is budgeted for the same reason.
PLANS: dict[str, dict] = {
    "sweep": _by_name(
        FaultPlan(
            name="default",
            seed=2019,
            worker_crash_p=0.35,
            cap_jitter_w=0.8,
            cap_excursion_p=0.02,
            sample_dropout_p=0.12,
            sample_noise_w=1.5,
            torn_tail=True,
        ),
        FaultPlan(
            name="engine",
            seed=11,
            worker_crash_p=0.5,
            worker_hang_p=0.25,
            hang_s=0.4,
        ),
        FaultPlan(
            name="machine",
            seed=23,
            cap_jitter_w=2.0,
            cap_excursion_p=0.05,
            sample_dropout_p=0.25,
            sample_noise_w=3.0,
        ),
        FaultPlan(name="store", seed=37, torn_tail=True),
        FaultPlan(
            name="hostile",
            seed=41,
            worker_crash_p=0.5,
            cap_jitter_w=1.5,
            cap_excursion_p=0.05,
            sample_dropout_p=0.2,
            sample_noise_w=2.5,
            point_corrupt_p=0.3,
            torn_tail=True,
        ),
    ),
    "service": _by_name(
        ServiceFaultInjector(name="none"),
        ServiceFaultInjector(
            name="default",
            job_crash_p=1.0,
            max_crashes=2,
            heartbeat_stall_p=1.0,
            max_stalls=1,
            duplicate_delivery_p=0.5,
            torn_wal=True,
        ),
        ServiceFaultInjector(
            name="crashy", job_crash_p=1.0, max_crashes=3, crash_after_groups=1
        ),
        ServiceFaultInjector(name="torn", torn_wal=True),
    ),
    "governor": _by_name(
        GovernorFaultPlan(name="none"),
        GovernorFaultPlan(
            name="default",
            seed=2019,
            signal_dropout_p=0.5,
            step_jump=150.0,
            truncate_frac=0.4,
        ),
        GovernorFaultPlan(
            name="blackout",
            seed=31,
            signal_dropout_p=0.9,
            step_jump=400.0,
            truncate_frac=0.1,
        ),
    ),
}


def get_plan(name: str, drill: str = "sweep", *, seed: int | None = None):
    """A fresh copy of ``drill``'s plan ``name``, re-seeded when ``seed``
    is given (``repro chaos [--service | --governor] --plan NAME --seed N``).

    The copy is what lets a drill fire a service injector's counters
    without touching the registry entry.
    """
    plans = PLANS[drill]
    if name not in plans:
        raise ValueError(
            f"unknown fault plan {name!r} for the {drill} drill; "
            f"expected one of {sorted(plans)}"
        )
    plan = plans[name]
    return replace(plan) if seed is None else replace(plan, seed=int(seed))
