"""Resumable result store: completed sweep points as JSON lines.

A store file is a header line followed by one :class:`RunPoint` per
line, appended as the sweep engine completes them::

    {"format": "repro-sweep-store", "version": 1, "fingerprint": "...", "meta": {...}}
    {"algorithm": "contour", "size": 128, "cap_w": 120.0, ...}
    {"algorithm": "contour", "size": 128, "cap_w": 110.0, ...}

The header's *fingerprint* hashes everything that determines a point's
value besides the (algorithm, size, cap) coordinates — machine spec,
dataset kind, seed, cycle count — so a store can only ever accumulate
points from one sweep context.  Resuming or *extending* a sweep (more
algorithms, sizes, or caps) appends to the same file; pointing an engine
with different parameters at it raises :class:`StoreMismatchError`
rather than silently mixing incomparable measurements.

Both files are :class:`~repro.obs.durable.JsonlFile` logs: appends are
fsynced per point, and a torn final line (a run killed mid-write) is
dropped on load and truncated before the next append, so an interrupted
sweep resumes from exactly the points that made it to disk.

Points that fail the invariant guardrails (:mod:`repro.core.validate`)
never enter the main store: :meth:`ResultStore.quarantine` appends them
to a ``*.quarantine.jsonl`` sidecar (its own header, then one point
with machine-readable reasons per line), keeping the main file clean
enough to trust blindly.  :meth:`ResultStore.reset` empties both.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterator

from ..obs.durable import JsonlFile
from .runner import RunPoint, StudyResult

__all__ = ["ResultStore", "StoreMismatchError", "sweep_fingerprint"]


#: The quarantine sidecar's header: a ``*.quarantine.jsonl`` file is a
#: log of ``{"point": ..., "reasons": [...]}`` records.
QUARANTINE_FORMAT = "repro-quarantine"
QUARANTINE_VERSION = 1


class StoreMismatchError(ValueError):
    """The store on disk was produced under a different sweep context."""


def sweep_fingerprint(payload: dict) -> str:
    """Stable digest of the sweep context (spec, dataset, seed, cycles)."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class ResultStore:
    """Append-only JSONL store of completed :class:`RunPoint`\\ s."""

    FORMAT = "repro-sweep-store"
    VERSION = 1

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.fingerprint: str | None = None
        self.meta: dict = {}
        self._points: dict[tuple[str, int, float], RunPoint] = {}
        self._log = JsonlFile(self.path, {"format": self.FORMAT, "version": self.VERSION})
        self._sidecar = JsonlFile(
            self.quarantine_path, {"format": QUARANTINE_FORMAT, "version": QUARANTINE_VERSION}
        )
        if self.path.exists() and self.path.stat().st_size > 0:
            header, points = self._log.read(RunPoint.from_dict)
            self.fingerprint = header.get("fingerprint")
            self.meta = dict(header.get("meta", {}))
            self._points = {p.key: p for p in points}

    # -------------------------------------------------------------- identity
    def ensure_compatible(self, fingerprint: str, meta: dict | None = None) -> None:
        """Bind a fresh store to a sweep context, or verify an existing one."""
        if self.fingerprint is None:
            self.fingerprint = fingerprint
            self.meta = dict(meta or {})
            self._write_header()
        elif self.fingerprint != fingerprint:
            raise StoreMismatchError(
                f"{self.path} was produced under fingerprint {self.fingerprint} "
                f"but this sweep has {fingerprint} (different machine spec, dataset, "
                f"seed, or cycle count); refusing to mix results — use a fresh --store path"
            )

    def reset(self, fingerprint: str, meta: dict | None = None) -> None:
        """Discard all stored and quarantined points and rebind to a new context."""
        self._points.clear()
        self._sidecar.remove()
        self.fingerprint = fingerprint
        self.meta = dict(meta or {})
        self._write_header()

    def _write_header(self) -> None:
        header = {
            "format": self.FORMAT,
            "version": self.VERSION,
            "fingerprint": self.fingerprint,
            "meta": self.meta,
        }
        # Atomic replace: a header rewrite (reset/remove) interrupted
        # half-way must not destroy the store it was compacting.
        self._log.write((p.to_dict() for p in self._points.values()), header=header)

    # -------------------------------------------------------------- contents
    def append(self, point: RunPoint) -> None:
        if self.fingerprint is None:
            raise RuntimeError("store has no fingerprint; call ensure_compatible() first")
        self._points[point.key] = point
        self._log.append(point.to_dict())

    def sync(self) -> None:
        """Force file (and directory) durability — e.g. on interrupt.

        Appends already fsync per record; this additionally syncs the
        directory entry so a freshly-created store survives a crash of
        the whole machine, not just the process.
        """
        self._log.sync()

    def remove(self, keys) -> int:
        """Drop points from the store (rewrites the file); returns count."""
        dropped = 0
        for key in list(keys):
            if self._points.pop(key, None) is not None:
                dropped += 1
        if dropped:
            self._write_header()
        return dropped

    # ----------------------------------------------------------- quarantine
    @property
    def quarantine_path(self) -> Path:
        """Sidecar file holding points that failed validation."""
        return self.path.with_suffix(".quarantine.jsonl")

    def quarantine(self, point: RunPoint, reasons) -> None:
        """Append a rejected point (with reasons) to the sidecar.

        ``reasons`` is an iterable of objects with ``code``/``message``
        attributes (:class:`repro.core.validate.Violation`) or plain
        dicts.  The sidecar is append-only and fsynced like the main
        store, so quarantined evidence survives a crash too.
        """
        self._sidecar.append(
            {
                "point": point.to_dict(),
                "reasons": [
                    r if isinstance(r, dict) else {"code": r.code, "message": r.message}
                    for r in reasons
                ],
            }
        )

    def quarantined(self) -> list[tuple[RunPoint, list[dict]]]:
        """All sidecar records as (point, reasons) pairs."""
        if not self.quarantine_path.exists():
            return []
        return self._sidecar.read(
            lambda rec: (RunPoint.from_dict(rec["point"]), list(rec["reasons"]))
        )[1]

    def __contains__(self, key: tuple[str, int, float]) -> bool:
        return key in self._points

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[RunPoint]:
        return iter(self._points.values())

    @property
    def points(self) -> dict[tuple[str, int, float], RunPoint]:
        """Completed points keyed by (algorithm, size, cap_w)."""
        return dict(self._points)

    def completed_keys(self) -> set[tuple[str, int, float]]:
        return set(self._points)

    def load_result(self, config_name: str | None = None) -> StudyResult:
        """All stored points as a :class:`StudyResult` (insertion order)."""
        name = config_name or self.meta.get("config_name") or self.path.stem
        return StudyResult(config_name=name, points=list(self._points.values()))
