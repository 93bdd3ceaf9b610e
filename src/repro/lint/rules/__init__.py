"""The project-specific rule set; importing this package registers all rules.

======== ============================== ==========================================
code     name                           contract
======== ============================== ==========================================
RPR001   non-atomic-write               artifact writes go through ``atomicio``
RPR002   float-cap-equality             ``math.isclose`` on caps/frequencies
RPR003   pickle-ban                     no pickle (de)serialization
RPR004   layering                       imports point down the module-guide layers
RPR005   unbalanced-span                spans are entered with ``with``
RPR006   unit-suffix                    no raw arithmetic across unit suffixes
RPR007   naked-thread-shared-mutation   shared registries mutate under a lock
RPR008   unit-flow                      unit suffixes agree across call boundaries
RPR009   lockset-race                   shared state holds one consistent lockset
RPR010   durability-ordering            flush+fsync before records become visible
RPR011   blocking-under-lock            no sleep/fsync/subprocess under a lock
======== ============================== ==========================================

RPR001–RPR007 are per-file rules; RPR008–RPR011 run on the project-wide
analysis engine (:mod:`repro.lint.analysis`).  (``RPR000`` is reserved
for the framework itself: parse errors and defective suppression
pragmas.)
"""

from .concurrency import NakedSharedMutation, UnbalancedSpan
from .dataflow import BlockingUnderLock, DurabilityOrdering, LocksetRace, UnitFlow
from .io_rules import NonAtomicWrite, PickleBan
from .layering import LAYERS, LayeringContract
from .numeric_rules import FloatCapEquality, UnitSuffixMix

__all__ = [
    "NonAtomicWrite",
    "FloatCapEquality",
    "PickleBan",
    "LayeringContract",
    "UnbalancedSpan",
    "UnitSuffixMix",
    "NakedSharedMutation",
    "UnitFlow",
    "LocksetRace",
    "DurabilityOrdering",
    "BlockingUnderLock",
    "LAYERS",
]
