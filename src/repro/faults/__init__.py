"""Deterministic fault injection for the sweep stack (chaos layer).

Real power-capped measurement pipelines treat sensor dropout, cap
enforcement jitter, and worker failure as first-class events.  This
package makes those failures *injectable, seeded, and reproducible* so
the engine's retry/timeout/fallback paths, the store's torn-tail
recovery, and the validation quarantine gate are all exercised by
realistic faults instead of trusted on faith:

* :class:`FaultPlan` / :data:`PLANS` — what to break, how often, under
  which seed (pure functions of ``(seed, site, key)``);
* :class:`MachineFaultInjector` — cap jitter, enforcement excursions,
  sample dropout/noise, hooked into ``RaplController``/``Processor``;
* :func:`tear_tail` / :func:`corrupt_header` / :func:`flip_fingerprint`
  — byte-level store damage;
* :func:`run_chaos` — the end-to-end driver behind ``repro chaos``;
* :class:`ServiceFaultInjector` / :data:`SERVICE_PLANS` /
  :func:`run_service_chaos` — the daemon-layer drill behind
  ``repro chaos --service`` (worker crash mid-job, heartbeat stalls,
  duplicate delivery, a torn WAL tail);
* :class:`GovernorFaultPlan` / :data:`GOVERNOR_PLANS` /
  :func:`run_governor_chaos` — the signal-feed drill behind
  ``repro chaos --governor`` (sample dropout, step discontinuities,
  trace truncation against a governed power policy).
"""

from .chaos import ChaosReport, run_chaos
from .governor import (
    GOVERNOR_PLANS,
    GovernorChaosReport,
    GovernorFaultPlan,
    get_governor_plan,
    run_governor_chaos,
)
from .machine import MachineFaultInjector, clear_machine_faults, inject_machine_faults
from .plan import PLANS, FaultPlan, InjectedFault, get_plan
from .service import (
    SERVICE_PLANS,
    ServiceChaosReport,
    ServiceFaultInjector,
    get_service_plan,
    run_service_chaos,
)
from .storefx import corrupt_header, flip_fingerprint, tear_tail

__all__ = [
    "FaultPlan",
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
    "ServiceFaultInjector",
    "SERVICE_PLANS",
    "get_service_plan",
    "ServiceChaosReport",
    "run_service_chaos",
    "GovernorFaultPlan",
    "GOVERNOR_PLANS",
    "get_governor_plan",
    "GovernorChaosReport",
    "run_governor_chaos",
]
