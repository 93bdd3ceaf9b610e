"""Correctness gate: committed reference ledgers and point digests.

``reference/ledgers.json`` holds the op-count ledgers of all 32 Phase 3
(algorithm, size) keys, 256^3 included, in the program's own
``ProfileCache`` format, so the warm workloads can load it directly.
``reference/points.json`` holds one SHA-256 digest per key over that
group's 9 RunPoints (canonical JSON lines, caps descending), plus the
digest of all 288 points.  ``record_reference.py`` regenerates both.

Every check raises :class:`GateError`; the benchmark then exits non-zero
without printing a result.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
POINTS_FORMAT = "perfbench-reference-points"


class GateError(AssertionError):
    """An output of the program differs from the committed reference."""


def group_key(algorithm: str, size: int) -> str:
    return f"{algorithm}/{int(size)}"


def group_digest(points) -> str:
    """Digest of one (algorithm, size) group, caps descending."""
    lines = [p.to_jsonl() for p in sorted(points, key=lambda p: -p.cap_w)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def group_digests(points) -> dict[str, str]:
    groups: dict[str, list] = {}
    for p in points:
        groups.setdefault(group_key(p.algorithm, p.size), []).append(p)
    return {k: group_digest(v) for k, v in groups.items()}


def study_digest(digests: dict[str, str], keys) -> str:
    """Digest over the group digests of ``keys``, in that order."""
    text = "\n".join(digests[k] for k in keys)
    return hashlib.sha256(text.encode()).hexdigest()


def _bits(ledger: dict) -> dict[str, str]:
    return {k: float(v).hex() for k, v in ledger.items()}


class Reference:
    """The committed ledgers and point digests, loaded from ``root``."""

    def __init__(self, root: Path = REFERENCE_DIR):
        self.root = Path(root)
        self.ledgers_path = self.root / "ledgers.json"
        doc = json.loads(self.ledgers_path.read_text())
        self.ledgers: dict[str, dict] = doc["entries"]
        points = json.loads((self.root / "points.json").read_text())
        if points.get("format") != POINTS_FORMAT:
            raise GateError(f"{self.root}/points.json is not a {POINTS_FORMAT} document")
        self.digests: dict[str, str] = points["groups"]
        self.phase3_digest: str = points["phase3_digest"]

    def keys(self, config) -> list[str]:
        return [group_key(a, s) for a in config.algorithms for s in config.sizes]

    def check_ledgers(self, entries, config) -> None:
        """Recorded ledgers must equal the reference bit for bit."""
        got = {group_key(a, s): ledger for a, s, ledger in entries}
        for key in self.keys(config):
            if key not in got:
                raise GateError(f"ledger {key} was not recorded")
            if key not in self.ledgers:
                raise GateError(f"no reference ledger for {key}")
            if _bits(got[key]) != _bits(self.ledgers[key]):
                raise GateError(f"ledger {key} differs from the reference")

    def check_points(self, points, config) -> None:
        """Points must cover exactly the config's groups, each matching."""
        got = group_digests(points)
        keys = self.keys(config)
        if sorted(got) != sorted(keys):
            raise GateError(f"points cover groups {sorted(got)}, expected {sorted(keys)}")
        n_expected = len(keys) * len(config.caps_w)
        if len(points) != n_expected:
            raise GateError(f"{len(points)} points, expected {n_expected}")
        for key in keys:
            if got[key] != self.digests.get(key):
                raise GateError(f"points of {key} differ from the reference digest")
        if len(keys) == len(self.digests) and study_digest(got, keys) != self.phase3_digest:
            raise GateError("the 288-point digest differs from the reference")
