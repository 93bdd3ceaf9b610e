"""Resumable result store: a sweep's points and their evidence as JSON lines.

A store file is a header line followed by one record per line, appended
as the sweep engine completes points::

    {"format": "repro-sweep-store", "version": 2, "fingerprint": "...", "meta": {...}}
    {"algorithm": "contour", "size": 128, "cap_w": 120.0, ...}
    {"algorithm": "contour", "size": 128, "cap_w": 110.0, ..., "segments": [["classify", ...], ...]}
    {"point": {"algorithm": "contour", "size": 128, ...}, "reasons": [{"code": ..., ...}]}

Records are of two kinds:

* a **point record** is a :class:`RunPoint`'s ``to_dict()``; a sampled
  sweep's point records also carry ``"segments"``, the point's segment
  records as lists in :class:`~repro.machine.simulator.SegmentRecord`
  field order, which :meth:`ResultStore.samples` expands into the
  point's 100 ms sample stream;
* a **quarantine record** holds a point that failed the invariant
  guardrails (:mod:`repro.core.validate`) with machine-readable reasons.
  It never counts as stored, which keeps the store's points clean
  enough to trust blindly, but its cell counts as finished: a resumed
  sweep does not price it again (:meth:`ResultStore.quarantined_keys`).

The header is the one record of the sweep *context*: everything that
determines a point's value besides its (algorithm, size, cap)
coordinates — every :class:`~repro.machine.spec.MachineSpec` field,
dataset kind, seed and cycle count (:data:`CONTEXT_KEYS`) — held in its
``meta`` next to the config name, and the *fingerprint*, a digest of
that context and the store version.  So a store can only ever
accumulate points from one sweep context, and it names the socket that
priced them (:attr:`ResultStore.spec`).  Resuming or *extending* a
sweep (more algorithms, sizes, or caps) appends to the same file;
pointing an engine with different parameters at it raises
:class:`StoreMismatchError`, naming what differs, rather than silently
mixing incomparable measurements.  A header written before it carried
the context still loads and resumes; its fingerprint is the same digest.

The file is a :class:`~repro.obs.durable.JsonlFile` log: every record is
one fsync'd append, so a point and its evidence become durable together,
and a torn final line (a run killed mid-write) is dropped on load and
truncated before the next append, so an interrupted sweep resumes from
exactly the records that made it to disk.  :meth:`ResultStore.reset`
and :meth:`ResultStore.remove` replace the file atomically.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, fields
from pathlib import Path
from typing import Iterator

from ..machine.simulator import SegmentRecord
from ..machine.spec import MachineSpec
from ..obs.durable import JsonlFile
from ..obs.samples import synthesize_stream
from .runner import RunPoint, StudyResult

__all__ = ["CONTEXT_KEYS", "ResultStore", "StoreMismatchError", "sweep_fingerprint"]

_SEGMENT_FIELDS = tuple(f.name for f in fields(SegmentRecord))

#: The header ``meta`` keys of the sweep context: the spec as its field
#: dict, then the dataset kind, seed and cycle count.
CONTEXT_KEYS = ("spec", "dataset_kind", "seed", "n_cycles")


class StoreMismatchError(ValueError):
    """The store on disk was produced under a different sweep context."""


def sweep_fingerprint(context: dict) -> str:
    """Stable digest of a sweep context (:data:`CONTEXT_KEYS`) and the
    store version."""
    payload = {"store_version": ResultStore.VERSION, **context}
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _context_diff(old: dict, new: dict) -> list[str]:
    """``key: old != new`` for each context key that differs, spec
    fields one by one; empty unless both sides carry the context."""
    flat = []
    for meta in (old, new):
        if not isinstance(meta.get("spec"), dict) or not meta.keys() >= set(CONTEXT_KEYS):
            return []
        spec = {f"spec.{f}": v for f, v in meta["spec"].items()}
        flat.append(spec | {k: meta[k] for k in CONTEXT_KEYS if k != "spec"})
    a, b = flat
    return [f"{k}: {a.get(k)!r} != {b.get(k)!r}" for k in a | b if a.get(k) != b.get(k)]


def _parse(record: dict):
    """A point record as its :class:`RunPoint`, a quarantine record as a
    ``(point, reasons)`` pair."""
    if "point" in record:
        return RunPoint.from_dict(record["point"]), list(record["reasons"])
    return RunPoint.from_dict(record)


def _quarantine_record(point: RunPoint, reasons) -> dict:
    return {
        "point": point.to_dict(),
        "reasons": [
            r if isinstance(r, dict) else {"code": r.code, "message": r.message} for r in reasons
        ],
    }


def _expand(record: dict) -> list[dict]:
    """The 100 ms sample records of a point record's segments (none for
    a record without segments)."""
    if "segments" not in record:
        return []
    key = {
        "algorithm": record["algorithm"],
        "size": int(record["size"]),
        "cap_w": float(record["cap_w"]),
    }
    stream = synthesize_stream([SegmentRecord(*row) for row in record["segments"]])
    return [{**key, "i": i, **asdict(s)} for i, s in enumerate(stream)]


class ResultStore:
    """Append-only JSONL store of completed :class:`RunPoint`\\ s, their
    segment records, and quarantined points."""

    FORMAT = "repro-sweep-store"
    VERSION = 2

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.fingerprint: str | None = None
        self.meta: dict = {}
        self._points: dict[tuple[str, int, float], RunPoint] = {}
        self._quarantined: set[tuple[str, int, float]] = set()
        self._log = JsonlFile(self.path, {"format": self.FORMAT, "version": self.VERSION})
        if self.path.exists() and self.path.stat().st_size > 0:
            header, records = self._log.read(_parse)
            self.fingerprint = header.get("fingerprint")
            self.meta = dict(header.get("meta", {}))
            self._points = {p.key: p for p in records if isinstance(p, RunPoint)}
            self._quarantined = {r[0].key for r in records if isinstance(r, tuple)}

    @classmethod
    def existing(cls, path: str | Path) -> "ResultStore":
        """The store at ``path`` for a reader: a path with no file raises
        ``FileNotFoundError`` naming it, where ``ResultStore(path)`` would
        open an empty store to write."""
        if not Path(path).exists():
            raise FileNotFoundError(f"no sweep store at {path}")
        return cls(path)

    # -------------------------------------------------------------- identity
    def ensure_compatible(self, fingerprint: str, meta: dict | None = None) -> None:
        """Bind a fresh store to a sweep context, or verify an existing one."""
        if self.fingerprint is None:
            self.fingerprint = fingerprint
            self.meta = dict(meta or {})
            self._write(())
        elif self.fingerprint != fingerprint:
            diff = _context_diff(self.meta, meta or {})
            why = "; ".join(diff) or "different machine spec, dataset, seed, or cycle count"
            raise StoreMismatchError(
                f"{self.path} was produced under fingerprint {self.fingerprint} "
                f"but this sweep has {fingerprint} ({why}); "
                f"refusing to mix results — use a fresh --store path"
            )

    def reset(self, fingerprint: str, meta: dict | None = None) -> None:
        """Discard every record and rebind to a new context."""
        self._points.clear()
        self._quarantined.clear()
        self.fingerprint = fingerprint
        self.meta = dict(meta or {})
        self._write(())

    def _write(self, records) -> None:
        """Atomically replace the file with the header and ``records``:
        an interrupted rewrite leaves the old file whole."""
        header = {
            "format": self.FORMAT,
            "version": self.VERSION,
            "fingerprint": self.fingerprint,
            "meta": self.meta,
        }
        self._log.write(records, header=header)

    def _append(self, record: dict) -> None:
        if self.fingerprint is None:
            raise RuntimeError("store has no fingerprint; call ensure_compatible() first")
        self._log.append(record)

    def _read(self, parse) -> list:
        """Every record through ``parse``, in file order."""
        return self._log.read(parse)[1] if self.fingerprint is not None else []

    @property
    def spec(self) -> MachineSpec | None:
        """The machine spec the header names, or None for a header
        written before it carried the sweep context."""
        spec = self.meta.get("spec")
        return MachineSpec(**spec) if isinstance(spec, dict) else None

    # -------------------------------------------------------------- contents
    def append(self, point: RunPoint, segments=None) -> None:
        """Durably append ``point``; given its ``segments``
        (:class:`~repro.machine.simulator.SegmentRecord`\\ s), the same
        line carries them."""
        record = point.to_dict()
        if segments is not None:
            record["segments"] = [[getattr(r, f) for f in _SEGMENT_FIELDS] for r in segments]
        self._append(record)
        self._points[point.key] = point

    def sync(self) -> None:
        """Force file (and directory) durability — e.g. on interrupt.

        Appends already fsync per record; this additionally syncs the
        directory entry so a freshly-created store survives a crash of
        the whole machine, not just the process.
        """
        self._log.sync()

    def remove(self, keys, reasons=None) -> int:
        """Drop stored points in one atomic rewrite; returns the count.

        Surviving points keep their segments, and quarantine records
        stay.  With ``reasons`` (point key → reasons), each dropped point
        becomes a quarantine record in that same rewrite, so a failed
        rewrite leaves it stored and not quarantined, never both.
        """
        drop = dict.fromkeys(key for key in keys if key in self._points)
        if not drop:
            return 0
        kept = [
            r for r in self._read(None) if "point" in r or RunPoint.from_dict(r).key not in drop
        ]
        moved = [_quarantine_record(self._points[k], reasons[k]) for k in drop] if reasons else []
        self._write(kept + moved)
        for key in drop:
            del self._points[key]
        if reasons:
            self._quarantined.update(drop)
        return len(drop)

    # ----------------------------------------------------------- evidence
    def quarantine(self, point: RunPoint, reasons) -> None:
        """Durably append a rejected point, with reasons, as a quarantine record.

        ``reasons`` is an iterable of objects with ``code``/``message``
        attributes (:class:`repro.core.validate.Violation`) or plain
        dicts.
        """
        self._append(_quarantine_record(point, reasons))
        self._quarantined.add(point.key)

    def quarantined(self) -> list[tuple[RunPoint, list[dict]]]:
        """Every quarantine record as a (point, reasons) pair, in file order."""
        return [r for r in self._read(_parse) if isinstance(r, tuple)]

    def samples(self) -> list[dict]:
        """The 100 ms sample records of every point stored with segments.

        One dict per :class:`~repro.obs.samples.PowerSample` of the
        point's synthesized stream, with the point's ``algorithm``,
        ``size`` and ``cap_w`` and the sample's index ``i``, in file
        order.  A stream's time-weighted mean power equals its point's
        ``power_w``.
        """
        return [r for stream in self._read(_expand) for r in stream]

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

    def quarantined_keys(self) -> set[tuple[str, int, float]]:
        """The cells that have a quarantine record."""
        return set(self._quarantined)

    def load_result(self, config_name: str | None = None) -> StudyResult:
        """All stored points as a :class:`StudyResult` (insertion order)."""
        name = config_name or self.meta.get("config_name") or self.path.stem
        return StudyResult(config_name=name, points=list(self._points.values()))
