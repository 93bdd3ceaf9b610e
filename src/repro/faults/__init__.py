"""Deterministic fault injection for the sweep stack (chaos layer).

Real power-capped measurement pipelines treat sensor dropout, cap
enforcement jitter, and worker failure as first-class events.  This
package makes those failures *injectable, seeded, and reproducible* so
the engine's retry/timeout/fallback paths, the store's torn-tail
recovery, and the validation quarantine gate are all exercised by
realistic faults instead of trusted on faith:

* :data:`PLANS` / :func:`get_plan` — every drill's named plans in one
  registry (``PLANS[drill][name]``) behind one lookup, which also
  re-seeds: :class:`FaultPlan` for the sweep drill,
  :class:`ServiceFaultInjector` for the service drill,
  :class:`GovernorFaultPlan` for the governor drill, all pure functions
  of ``(seed, site, key)``;
* :class:`MachineFaultInjector` — cap jitter, enforcement excursions,
  sample dropout/noise, hooked into ``RaplController``/``Processor``;
* :func:`tear_tail` / :func:`corrupt_header` / :func:`flip_fingerprint`
  — byte-level store damage;
* three drills on one scaffold (one report contract, one trace path on
  the default tracer): :func:`run_chaos` behind ``repro chaos``,
  :func:`run_service_chaos` behind ``repro chaos --service`` (worker
  crash mid-job, heartbeat stalls, duplicate delivery, a torn WAL
  tail), and :func:`run_governor_chaos` behind ``repro chaos
  --governor`` (sample dropout, step discontinuities, trace truncation
  against a governed power policy).
"""

from .chaos import ChaosReport, run_chaos
from .governor import GovernorChaosReport, run_governor_chaos
from .machine import MachineFaultInjector, clear_machine_faults, inject_machine_faults
from .plan import (
    PLANS,
    FaultPlan,
    GovernorFaultPlan,
    InjectedFault,
    ServiceFaultInjector,
    get_plan,
)
from .service import ServiceChaosReport, run_service_chaos
from .storefx import corrupt_header, flip_fingerprint, tear_tail

__all__ = [
    "FaultPlan",
    "ServiceFaultInjector",
    "GovernorFaultPlan",
    "InjectedFault",
    "PLANS",
    "get_plan",
    "MachineFaultInjector",
    "inject_machine_faults",
    "clear_machine_faults",
    "tear_tail",
    "corrupt_header",
    "flip_fingerprint",
    "ChaosReport",
    "run_chaos",
    "ServiceChaosReport",
    "run_service_chaos",
    "GovernorChaosReport",
    "run_governor_chaos",
]
