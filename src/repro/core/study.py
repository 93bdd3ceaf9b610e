"""Study configuration: the paper's factors and phases (§IV).

The full study is 288 configurations: 9 processor power caps × 8
visualization algorithms × 4 dataset sizes.  Phase 1 fixes a base case
(contour, 128³) and sweeps caps; Phase 2 adds the algorithm factor;
Phase 3 adds the size factor.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import product

import numpy as np

__all__ = [
    "POWER_CAPS_W",
    "DATASET_SIZES",
    "ALGORITHM_NAMES",
    "StudyConfig",
    "phase1_config",
    "phase2_config",
    "phase3_config",
    "effective_sizes",
    "PHASE_NAMES",
    "resolve_config",
]

#: The paper's caps: 120 W (TDP) down to 40 W in 10 W steps.
POWER_CAPS_W: tuple[float, ...] = tuple(float(w) for w in range(120, 30, -10))

#: The paper's dataset sizes (cells per axis).
DATASET_SIZES: tuple[int, ...] = (32, 64, 128, 256)

#: The eight algorithms, in the paper's presentation order.
ALGORITHM_NAMES: tuple[str, ...] = (
    "contour",
    "threshold",
    "clip",
    "isovolume",
    "slice",
    "advection",
    "raytrace",
    "volume",
)


@dataclass(frozen=True)
class StudyConfig:
    """One phase's factor grid."""

    name: str
    algorithms: tuple[str, ...]
    sizes: tuple[int, ...]
    caps_w: tuple[float, ...] = POWER_CAPS_W

    def __post_init__(self) -> None:
        unknown = set(self.algorithms) - set(ALGORITHM_NAMES)
        if unknown:
            raise ValueError(f"unknown algorithm(s): {sorted(unknown)}")
        if any(s < 2 for s in self.sizes):
            raise ValueError("sizes must be at least 2 cells per axis")
        if not self.caps_w:
            raise ValueError("need at least one power cap")

    @property
    def n_configurations(self) -> int:
        return len(self.algorithms) * len(self.sizes) * len(self.caps_w)

    def configurations(self):
        """Iterate (algorithm, size, cap) in sweep order."""
        return product(self.algorithms, self.sizes, self.caps_w)

    @property
    def default_cap_w(self) -> float:
        """The baseline (highest) cap — TDP in the paper."""
        return max(self.caps_w)

    def to_dict(self) -> dict:
        """The explicit grid as a JSON-ready dict: the form a service
        job's WAL ``submit`` spec records."""
        return {
            "name": self.name,
            "algorithms": list(self.algorithms),
            "sizes": [int(s) for s in self.sizes],
            "caps_w": [float(c) for c in self.caps_w],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "StudyConfig":
        """The grid :meth:`to_dict` wrote."""
        return cls(
            name=str(doc["name"]),
            algorithms=tuple(str(a) for a in doc["algorithms"]),
            sizes=tuple(int(s) for s in doc["sizes"]),
            caps_w=tuple(float(c) for c in doc["caps_w"]),
        )


def phase1_config() -> StudyConfig:
    """Phase 1: contour at 128³ across all caps (9 tests)."""
    return StudyConfig(name="phase1", algorithms=("contour",), sizes=(128,))


def phase2_config() -> StudyConfig:
    """Phase 2: all algorithms at 128³ (72 tests)."""
    return StudyConfig(name="phase2", algorithms=ALGORITHM_NAMES, sizes=(128,))


def phase3_config(sizes: tuple[int, ...] = DATASET_SIZES) -> StudyConfig:
    """Phase 3: all algorithms × all sizes (288 tests)."""
    return StudyConfig(name="phase3", algorithms=ALGORITHM_NAMES, sizes=sizes)


def effective_sizes(requested: tuple[int, ...] = DATASET_SIZES) -> tuple[int, ...]:
    """The requested sizes, capped by the REPRO_MAX_SIZE environment
    variable (useful to smoke-test the full study quickly).

    Raises
    ------
    ValueError
        If ``REPRO_MAX_SIZE`` is set to something that is not a whole
        number (e.g. ``REPRO_MAX_SIZE=64.5`` or ``REPRO_MAX_SIZE=big``).
    """
    raw = os.environ.get("REPRO_MAX_SIZE", "").strip()
    if not raw:
        return tuple(requested)
    try:
        cap = int(raw, 10)
    except ValueError:
        raise ValueError(
            f"REPRO_MAX_SIZE must be a whole number of cells per axis "
            f"(e.g. REPRO_MAX_SIZE=64), got {raw!r}"
        ) from None
    if cap <= 0:
        return tuple(requested)
    kept = tuple(s for s in requested if s <= cap)
    # When the cap excludes every requested size, substitute the cap
    # itself (e.g. table3's 256³ becomes a 64³ smoke run).
    return kept if kept else (cap,)


#: Phase names accepted by :func:`resolve_config`.
PHASE_NAMES = ("phase1", "phase2", "phase3", "table1", "table2", "table3")


def resolve_config(config: StudyConfig | str) -> StudyConfig:
    """Turn a phase name (or pass an explicit grid through) into a config.

    Named phases get their sizes capped by ``REPRO_MAX_SIZE``; an
    explicit :class:`StudyConfig` is returned unchanged.
    """
    if isinstance(config, StudyConfig):
        return config
    name = str(config).lower()
    if name in ("phase1", "table1"):
        base = phase1_config()
    elif name in ("phase2", "table2"):
        base = phase2_config()
    elif name == "phase3":
        base = phase3_config()
    elif name == "table3":
        base = StudyConfig(name="table3", algorithms=ALGORITHM_NAMES, sizes=(256,))
    else:
        raise ValueError(f"unknown study phase {config!r}; expected one of {PHASE_NAMES}")
    return StudyConfig(
        name=base.name,
        algorithms=base.algorithms,
        sizes=effective_sizes(base.sizes),
        caps_w=base.caps_w,
    )
