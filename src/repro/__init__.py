"""repro — reproduction of "Power and Performance Tradeoffs for
Visualization Algorithms" (Labasan, Larsen, Childs, Rountree; IPDPS 2019).

The package is layered bottom-up:

* :mod:`repro.workload` — hardware-independent work descriptions.
* :mod:`repro.data` — grids, fields, meshes, marching-cubes tables.
* :mod:`repro.viz` — the eight visualization algorithms (VTK-m substitute).
* :mod:`repro.machine` — simulated Broadwell socket with RAPL power capping.
* :mod:`repro.cloverleaf` — hydrodynamics proxy (data source).
* :mod:`repro.insitu` — tightly-coupled sim+viz and the power-budget runtime.
* :mod:`repro.core` — the study itself: sweeps, metrics, classification,
  the parallel/resumable sweep engine, its result store, and the
  invariant validator behind the quarantine gate.
* :mod:`repro.faults` — deterministic fault injection (chaos layer) for
  the machine, engine, and store (``repro chaos`` / ``repro doctor``).
* :mod:`repro.lint` — contract-aware static analysis (``repro lint``),
  the zero-violation gate over the conventions listed above.
* :mod:`repro.harness` — CSV emitters of study results.
* :mod:`repro.api` — the typed advise protocol
  (``repro.advise(repro.AdviseRequest(...))``) that ``repro advise``
  speaks.

A study runs through :class:`repro.core.SweepEngine`:
``SweepEngine(...).run(resolve_config("phase2"))``, with
:func:`repro.core.study.resolve_config` mapping a table or phase name to
its grid.
"""

__version__ = "1.1.0"

import os as _os

if _os.environ.get("REPRO_SANITIZE") == "1":
    # Patch the threading lock factories *before* any repro module is
    # imported, so every lock the package creates is tracked.
    from .lint.sanitizer import install as _sanitizer_install

    _sanitizer_install()

from .workload import AccessPattern, InstructionMix, WorkProfile, WorkSegment
from . import api
from .api import AdviseRequest, AdviseResponse, advise

__all__ = [
    "__version__",
    "AccessPattern",
    "InstructionMix",
    "WorkProfile",
    "WorkSegment",
    "api",
    "advise",
    "AdviseRequest",
    "AdviseResponse",
]
