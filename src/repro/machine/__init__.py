"""Simulated Broadwell socket: caches, DVFS, power model, RAPL capping."""

from .cache import CacheModel, MemoryBehavior
from .exec_model import ExecutionModel, SegmentEval
from .msr import ENERGY_UNIT_J, ENERGY_WRAP, MsrBank
from .power import PowerBreakdown, PowerModel
from .rapl import MIN_DUTY, OperatingPoint, RaplController
from .simulator import Processor, RunResult, SegmentRecord
from .presets import ALL_PRESETS, LOWPOWER_MANYCORE, SKYLAKE_LIKE
from .spec import BROADWELL_E5_2695V4, MachineSpec

__all__ = [
    "CacheModel",
    "MemoryBehavior",
    "ExecutionModel",
    "SegmentEval",
    "MsrBank",
    "ENERGY_UNIT_J",
    "ENERGY_WRAP",
    "PowerBreakdown",
    "PowerModel",
    "RaplController",
    "OperatingPoint",
    "MIN_DUTY",
    "Processor",
    "RunResult",
    "SegmentRecord",
    "MachineSpec",
    "BROADWELL_E5_2695V4",
    "SKYLAKE_LIKE",
    "LOWPOWER_MANYCORE",
    "ALL_PRESETS",
]
