"""Content-addressed ledger cache and vectorized batch repricing.

The expensive half of answering "what does algorithm X at size S cost
under cap C?" is executing the real algorithm; everything after the
op-count ledger is closed-form.  This module makes the cheap half
*actually cheap* and the expensive half *happen once*:

* :class:`LedgerCache` — a content-addressed store of op-count ledgers
  keyed by ``(algorithm, size, dataset fingerprint, machine spec hash)``.
  The key is a SHA-256 digest of the canonical-JSON coordinate tuple, so
  a ledger recorded under one machine/dataset can never be silently
  repriced under another — changing the spec *is* cache invalidation.
  Persistence goes through :mod:`repro.core.atomicio` (temp + fsync +
  ``os.replace``), the same crash-safety contract the result store makes.

* :class:`BatchRepricer` — reprices whole cap grids in one numpy pass,
  **bitwise identical** to :meth:`repro.machine.simulator.Processor.run`
  followed by :func:`repro.core.runner.make_run_point`.  The trick: the
  per-(segment, frequency-bin) power/time tables are precomputed with
  the *scalar* production code (``PowerModel.power``,
  ``SegmentEval.time_at``), so vectorization only covers bin selection
  and accumulation — and those mirror the controller's scan and the
  simulator's deposit arithmetic operation-for-operation (see the
  comments in :meth:`BatchRepricer._price_columns`).  Throttled cells
  (no P-state fits the cap) fall back to the real
  :class:`~repro.machine.rapl.RaplController` per cell; they are rare
  and the duty bisection is not worth vectorizing.  It is the only
  pricing path of the sweep engine and the advisor; ``Processor.run``
  stays as the scalar oracle the tests compare it against.

* :class:`PricedPoints` — what one repricing pass returns: the points,
  plus the cells it selected per (segment, cap), from which
  :meth:`PricedPoints.segment_records` rebuilds the
  :class:`~repro.machine.simulator.SegmentRecord`\\ s that sample
  streams are synthesized from.

``docs/pricing_service.md`` documents the key scheme, the invalidation
story, and the bench methodology behind ``BENCH_advisor.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from collections import OrderedDict
from dataclasses import asdict
from pathlib import Path
from typing import Iterator

import numpy as np

from ..machine.exec_model import ExecutionModel
from ..machine.power import PowerModel
from ..machine.rapl import RaplController
from ..machine.simulator import SegmentRecord
from ..machine.spec import BROADWELL_E5_2695V4, MachineSpec
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.trace import log_event
from .atomicio import atomic_write_json
from .metrics import Ratios
from .profiles import ProfileCache, profile_from_ledger
from .runner import DEFAULT_VIZ_CYCLES, RunPoint

__all__ = [
    "LEDGER_CACHE_FORMAT",
    "LEDGER_CACHE_VERSION",
    "machine_spec_hash",
    "dataset_fingerprint",
    "ledger_key",
    "LedgerCache",
    "BatchRepricer",
    "PricedPoints",
]

LEDGER_CACHE_FORMAT = "repro-ledger-cache"
LEDGER_CACHE_VERSION = 1


def _digest(payload: dict) -> str:
    """SHA-256 over canonical (sorted-key) JSON, truncated to 16 hex chars."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def machine_spec_hash(spec: MachineSpec) -> str:
    """Content hash of a machine spec — every field participates.

    Any electrical-constant recalibration, cache-size tweak, or new
    frequency bin changes the hash, so every ledger recorded under the
    old machine stops matching instead of being repriced on stale terms.
    """
    return _digest(asdict(spec))


def dataset_fingerprint(kind: str = "blobs", *, seed: int = 7) -> str:
    """Content hash of the dataset recipe the ledger was recorded against.

    Ledgers depend on the field *values* (cells intersected, rays
    traced, ...), and the generators are deterministic in (kind, seed) —
    that pair plus the size (which is part of the cache coordinates) is
    the full recipe.
    """
    return _digest({"kind": str(kind), "seed": int(seed)})


def ledger_key(algorithm: str, size: int, *, dataset: str, machine: str) -> str:
    """The content address of one ledger cache entry."""
    return _digest(
        {
            "algorithm": str(algorithm),
            "size": int(size),
            "dataset": str(dataset),
            "machine": str(machine),
        }
    )


class LedgerCache:
    """Content-addressed (algorithm, size, dataset, machine) → ledger cache.

    ``path=None`` keeps the cache in memory only; otherwise the whole
    document is persisted atomically after every mutation (ledgers are
    tiny — a few dozen floats each) by a write-behind drain that never
    holds the mutation lock across the disk write, so readers are never
    stalled behind an fsync.  Hit/miss traffic is published to the
    metrics registry as ``repro_ledger_cache_requests_total``.
    """

    FORMAT = LEDGER_CACHE_FORMAT
    VERSION = LEDGER_CACHE_VERSION

    def __init__(self, path: str | Path | None = None, *, metrics: MetricsRegistry | None = None):
        self._lock = threading.Lock()
        #: key → {"algorithm", "size", "dataset", "machine", "ledger"}
        self._entries: dict[str, dict] = {}
        # Write-behind persist state (see _persist): guarded by _lock.
        self._persist_active = False
        self._persist_pending = False
        self.path = Path(path) if path is not None else None
        reg = metrics if metrics is not None else get_registry()
        self._hits = reg.counter(
            "repro_ledger_cache_requests_total", "ledger cache lookups", outcome="hit"
        )
        self._misses = reg.counter(
            "repro_ledger_cache_requests_total", "ledger cache lookups", outcome="miss"
        )
        if self.path is not None and self.path.exists():
            self._load(self.path)

    # ------------------------------------------------------------ persistence
    def _load(self, p: Path) -> None:
        try:
            doc = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            # Torn mid-record (crash before this cache existed, external
            # truncation): the cache only memoizes re-runnable work, so
            # recover by starting empty — but move the damage aside so it
            # is inspectable, and say so through obs.  Wrong-format and
            # too-new files still raise below: those are *intact* files
            # we must not destroy.
            corrupt = p.with_name(p.name + ".corrupt")
            log_event(
                "ledger-cache-corrupt",
                f"ledger cache {p} is truncated or corrupt ({exc!r}); "
                f"renaming to {corrupt.name} and starting with an empty cache",
                path=str(p),
                renamed_to=str(corrupt),
            )
            try:
                p.replace(corrupt)
            except OSError:
                pass  # read-only cache dir: the warning above still fired
            return
        if doc.get("format") != self.FORMAT:
            raise ValueError(f"{p} is not a ledger cache (format={doc.get('format')!r})")
        if int(doc.get("version", 1)) > self.VERSION:
            raise ValueError(
                f"{p} has cache version {doc['version']}, newer than supported {self.VERSION}"
            )
        entries: dict[str, dict] = {}
        dropped = 0
        for key, entry in doc.get("entries", {}).items():
            expect = ledger_key(
                entry["algorithm"],
                int(entry["size"]),
                dataset=entry["dataset"],
                machine=entry["machine"],
            )
            if key != expect:
                # Content addressing is the integrity check: a key that
                # no longer matches its coordinates means the file was
                # hand-edited or torn — drop the entry, keep the rest.
                dropped += 1
                continue
            entries[key] = {
                "algorithm": str(entry["algorithm"]),
                "size": int(entry["size"]),
                "dataset": str(entry["dataset"]),
                "machine": str(entry["machine"]),
                "ledger": {k: float(v) for k, v in entry["ledger"].items()},
            }
        if dropped:
            log_event(
                "ledger-cache-integrity",
                f"dropped {dropped} ledger cache entr{'y' if dropped == 1 else 'ies'} "
                f"whose content address does not match its coordinates",
                path=str(p),
                dropped=dropped,
            )
        with self._lock:
            self._entries = entries

    def _persist(self) -> None:
        """Write-behind persist: snapshot under the lock, write outside it.

        Holding ``_lock`` across the atomic write (flush + fsync) would
        stall every reader behind disk latency — the blocking-under-lock
        hazard RPR011 flags.  Instead one writer at a time drains: it
        snapshots the entries under the lock, writes with no lock held,
        and loops if a mutation landed mid-write, so the file always
        converges to the latest state and writes can never interleave
        out of order.
        """
        if self.path is None:
            return
        with self._lock:
            if self._persist_active:
                self._persist_pending = True
                return
            self._persist_active = True
        while True:
            with self._lock:
                self._persist_pending = False
                entries = {
                    k: dict(e, ledger=dict(e["ledger"])) for k, e in self._entries.items()
                }
            doc = {"format": self.FORMAT, "version": self.VERSION, "entries": entries}
            atomic_write_json(self.path, doc)
            with self._lock:
                if not self._persist_pending:
                    self._persist_active = False
                    return

    # ----------------------------------------------------------------- access
    def get(
        self, algorithm: str, size: int, *, dataset: str, machine: str
    ) -> dict[str, float] | None:
        key = ledger_key(algorithm, size, dataset=dataset, machine=machine)
        with self._lock:
            entry = self._entries.get(key)
        if entry is None:
            self._misses.inc()
            return None
        self._hits.inc()
        return dict(entry["ledger"])

    def put(
        self,
        algorithm: str,
        size: int,
        ledger: dict[str, float],
        *,
        dataset: str,
        machine: str,
    ) -> str:
        """Store a ledger under its content address; returns the key."""
        key = ledger_key(algorithm, size, dataset=dataset, machine=machine)
        entry = {
            "algorithm": str(algorithm),
            "size": int(size),
            "dataset": str(dataset),
            "machine": str(machine),
            "ledger": {k: float(v) for k, v in ledger.items()},
        }
        with self._lock:
            self._entries[key] = entry
        self._persist()
        return key

    def entries(self) -> Iterator[tuple[str, int, str, str, dict[str, float]]]:
        """Iterate ``(algorithm, size, dataset, machine, ledger)`` snapshots."""
        with self._lock:
            snapshot = [dict(e, ledger=dict(e["ledger"])) for e in self._entries.values()]
        for e in snapshot:
            yield (e["algorithm"], e["size"], e["dataset"], e["machine"], e["ledger"])

    def ingest_profile_cache(
        self, cache: ProfileCache, *, dataset: str, machine: str
    ) -> int:
        """Import a sweep engine's :class:`ProfileCache` wholesale.

        The engine's cache is keyed by (algorithm, size) only — the
        caller asserts which dataset recipe and machine those ledgers
        were recorded under.  Returns the number of entries added.
        """
        added = 0
        for algorithm, size, ledger in cache.entries():
            key = ledger_key(algorithm, size, dataset=dataset, machine=machine)
            with self._lock:
                known = key in self._entries
            if not known:
                self.put(algorithm, size, ledger, dataset=dataset, machine=machine)
                added += 1
        return added

    def __contains__(self, coords: tuple[str, int, str, str]) -> bool:
        algorithm, size, dataset, machine = coords
        key = ledger_key(algorithm, size, dataset=dataset, machine=machine)
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class _PricingTable:
    """Per-(segment, frequency-bin) power/time tables for one profile.

    Every cell is produced by the exact scalar production functions the
    controller and simulator call, so any value read out of the table is
    bitwise the value the per-point path would have computed.
    """

    __slots__ = ("evs", "bins", "power_wb", "time_sb")

    def __init__(self, exec_model: ExecutionModel, power_model: PowerModel, profile) -> None:
        profile.validate()
        self.evs = [exec_model.evaluate(seg) for seg in profile]
        bins = exec_model.spec.freq_bins
        self.bins = np.array([float(f) for f in bins], dtype=np.float64)
        n_seg, n_bin = len(self.evs), len(self.bins)
        self.power_wb = np.empty((n_seg, n_bin), dtype=np.float64)
        self.time_sb = np.empty((n_seg, n_bin), dtype=np.float64)
        for i, ev in enumerate(self.evs):
            for j in range(n_bin):
                f = float(bins[j])
                self.power_wb[i, j] = power_model.power(ev, f)
                self.time_sb[i, j] = ev.time_at(f, duty=1.0)


class BatchRepricer:
    """Vectorized cap repricing, bitwise identical to the per-point path.

    One instance prices one machine spec; grids spanning machines use
    one repricer per spec.  Pricing tables are cached per
    ``(algorithm, size, n_cycles, ledger digest)`` with LRU eviction, so
    a warm advise service pays table construction once per key.
    """

    def __init__(
        self,
        spec: MachineSpec | None = None,
        *,
        n_cycles: int = DEFAULT_VIZ_CYCLES,
        max_tables: int = 256,
    ):
        self.spec = spec if spec is not None else BROADWELL_E5_2695V4
        self.n_cycles = int(n_cycles)
        if self.n_cycles < 1:
            raise ValueError("n_cycles must be positive")
        if max_tables < 1:
            raise ValueError("max_tables must be positive")
        self.max_tables = int(max_tables)
        self._exec_model = ExecutionModel(self.spec)
        self._power_model = PowerModel(self.spec)
        self._rapl = RaplController(self.spec, self._power_model)
        self._lock = threading.Lock()
        self._tables: OrderedDict[tuple, _PricingTable] = OrderedDict()

    # ------------------------------------------------------------- tables
    def table_for(
        self, algorithm: str, size: int, ledger: dict[str, float], *, n_cycles: int | None = None
    ) -> _PricingTable:
        cycles = self.n_cycles if n_cycles is None else int(n_cycles)
        key = (str(algorithm), int(size), cycles, _digest({k: ledger[k] for k in ledger}))
        with self._lock:
            table = self._tables.get(key)
            if table is not None:
                self._tables.move_to_end(key)
                return table
        profile = profile_from_ledger(algorithm, size, ledger, n_cycles=cycles)
        table = _PricingTable(self._exec_model, self._power_model, profile)
        with self._lock:
            self._tables[key] = table
            self._tables.move_to_end(key)
            while len(self._tables) > self.max_tables:
                self._tables.popitem(last=False)
        return table

    @property
    def cached_tables(self) -> int:
        with self._lock:
            return len(self._tables)

    # ------------------------------------------------------------ repricing
    def _price_columns(self, table: _PricingTable, caps: list[float]) -> dict[str, np.ndarray]:
        """All derived measurements, one array column per requested cap.

        Bitwise identity with ``Processor.run`` rests on four facts:

        1. The controller's top-down scan returns the *highest* bin
           whose power fits the cap; ``argmax`` over the reversed fit
           mask selects exactly that bin, and the table holds the same
           scalar power/time values the scan would have computed
           (``p + 0.0`` and ``p - 0.0`` in the controller are bitwise
           identities for the positive powers the model produces).
        2. numpy float64 elementwise arithmetic is IEEE-754 double
           arithmetic — the same operations CPython floats perform —
           and every expression below keeps the simulator's exact
           association order (``f*1e9*t*duty*n`` etc.).
        3. ``RunResult`` totals are a left-to-right ``sum`` over
           segment records starting from zero; accumulating cap-columns
           (and the cap-independent counters, as scalars) with ``+``
           per segment reproduces that order (never ``np.sum``, whose
           pairwise reduction would not).
        4. Cells where no P-state fits fall back to the real
           controller, per cell — the scalar path itself.

        ``cells`` keeps, per segment, the selected frequency, duty,
        power, time, energy and cap-met columns (what each
        ``SegmentRecord`` holds; cap-met is ``None`` when every cap
        fits); ``throttled`` counts the no-fit cells.
        """
        for c in caps:
            if not math.isfinite(c):
                raise ValueError(f"power cap must be finite, got {c}")
            if c <= 0:
                raise ValueError(f"power cap must be positive, got {c}")
        spec = self.spec
        cap_arr = np.array(caps, dtype=np.float64)
        # Same clamp as RaplController.validate_cap: min(max(cap, floor), tdp).
        clamped = np.minimum(np.maximum(cap_arr, spec.rapl_floor_watts), spec.tdp_watts)
        n_caps = len(caps)
        n_bin = len(table.bins)
        n = spec.n_cores
        f_base = spec.f_base

        time_tot = np.zeros(n_caps)
        energy_tot = np.zeros(n_caps)
        aperf = np.zeros(n_caps)
        ref_cycles = np.zeros(n_caps)  # mperf == clk_unhalted: identical deposits
        # Retired instructions and LLC traffic do not depend on the cap:
        # scalars, accumulated in the same left-to-right order.
        inst = llc_refs = llc_misses = 0.0
        cells = []
        throttled = 0

        for s, ev in enumerate(table.evs):
            p_row = table.power_wb[s]
            t_row = table.time_sb[s]
            fits = p_row[:, None] <= clamped[None, :]          # (bins, caps)
            # Highest-index fitting bin == first fit of the top-down scan.
            sel = (n_bin - 1) - np.argmax(fits[::-1, :], axis=0)
            f_sel = table.bins[sel]
            p_sel = p_row[sel]
            t_sel = t_row[sel]
            duty_sel = np.ones(n_caps)
            met_sel = None
            no_fit = ~fits.any(axis=0)
            if no_fit.any():
                met_sel = np.ones(n_caps, dtype=bool)
                for c in np.flatnonzero(no_fit):
                    op = self._rapl.operating_point(ev, float(clamped[c]))
                    f_sel[c] = op.f_ghz
                    duty_sel[c] = op.duty
                    p_sel[c] = op.power_w
                    t_sel[c] = ev.time_at(op.f_ghz, duty=op.duty)
                    met_sel[c] = op.cap_met
                    throttled += 1
            e_sel = p_sel * t_sel
            cells.append((f_sel, duty_sel, p_sel, t_sel, e_sel, met_sel))
            time_tot = time_tot + t_sel
            energy_tot = energy_tot + e_sel
            aperf = aperf + f_sel * 1e9 * t_sel * duty_sel * n
            ref_cycles = ref_cycles + f_base * 1e9 * t_sel * n
            inst += ev.instructions
            llc_refs += ev.memory.llc_refs
            llc_misses += ev.memory.llc_misses

        power = np.divide(
            energy_tot, time_tot, out=np.zeros(n_caps), where=time_tot > 0
        )
        freq = (
            np.divide(aperf, ref_cycles, out=np.zeros(n_caps), where=ref_cycles > 0)
            * f_base
        )
        ipc = np.divide(
            np.full(n_caps, inst), ref_cycles, out=np.zeros(n_caps), where=ref_cycles > 0
        )
        miss_rate = np.divide(
            llc_misses, llc_refs, out=np.zeros(n_caps), where=llc_refs > 0
        )
        return {
            "time_s": time_tot,
            "energy_j": energy_tot,
            "power_w": power,
            "freq_ghz": freq,
            "ipc": ipc,
            "llc_miss_rate": miss_rate,
            "cells": cells,
            "throttled": throttled,
        }

    def reprice(
        self,
        algorithm: str,
        size: int,
        ledger: dict[str, float],
        caps_w,
        *,
        default_cap_w: float | None = None,
        n_cycles: int | None = None,
    ) -> PricedPoints:
        """Price every cap in ``caps_w`` from a recorded ledger.

        Returns :class:`RunPoint`\\ s in cap order, each bitwise equal to
        ``make_run_point(..., processor.run(profile, cap),
        processor.run(profile, default_cap), default_cap)``, as a
        :class:`PricedPoints` list.  The default (baseline) cap defaults
        to ``max(caps_w)``, matching the sweep engine's choice of
        ``StudyConfig.default_cap_w``.
        """
        caps = [float(c) for c in caps_w]
        if not caps:
            raise ValueError("need at least one power cap")
        default_cap = float(default_cap_w) if default_cap_w is not None else max(caps)
        table = self.table_for(algorithm, size, ledger, n_cycles=n_cycles)
        # The baseline reuses its cap's column, or is priced as an extra
        # trailing column of the same pass.
        columns = caps if default_cap in caps else caps + [default_cap]
        cols = self._price_columns(table, columns)
        base = columns.index(default_cap)
        time_base = float(cols["time_s"][base])
        freq_base = float(cols["freq_ghz"][base])
        points: list[RunPoint] = []
        for i, cap in enumerate(caps):
            ratios = Ratios.from_measurements(
                cap_default_w=default_cap,
                cap_w=cap,
                time_default_s=time_base,
                time_s=float(cols["time_s"][i]),
                freq_default_ghz=freq_base,
                freq_ghz=float(cols["freq_ghz"][i]),
            )
            points.append(
                RunPoint(
                    algorithm=str(algorithm),
                    size=int(size),
                    cap_w=cap,
                    time_s=float(cols["time_s"][i]),
                    energy_j=float(cols["energy_j"][i]),
                    power_w=float(cols["power_w"][i]),
                    freq_ghz=float(cols["freq_ghz"][i]),
                    ipc=float(cols["ipc"][i]),
                    llc_miss_rate=float(cols["llc_miss_rate"][i]),
                    ratios=ratios,
                )
            )
        return PricedPoints(
            points,
            table.evs,
            cols["cells"],
            decisions=len(table.evs) * len(columns),
            throttle_decisions=cols["throttled"],
        )


class PricedPoints(list):
    """The :class:`RunPoint`\\ s of one :meth:`BatchRepricer.reprice` pass.

    It is the list of points, in the requested cap order.  It also keeps
    the cells the pass selected for each (segment, cap), so
    :meth:`segment_records` can rebuild a point's segment records
    without pricing its cap again.
    """

    def __init__(self, points, evs, cells, *, decisions: int, throttle_decisions: int):
        super().__init__(points)
        self._evs = evs
        self._cells = cells
        #: Operating-point decisions the scalar controller makes for the
        #: same caps: one per (segment, cap priced), the baseline
        #: included once.
        self.decisions = decisions
        #: Of those, the cells where no P-state fits the cap, so the
        #: controller duty-cycles at the floor frequency.
        self.throttle_decisions = throttle_decisions

    def segment_records(self, i: int) -> list[SegmentRecord]:
        """The ``i``-th point's records, bitwise equal to
        ``Processor.run(profile, caps_w[i]).records``."""
        records = []
        for ev, (f, duty, p, t, e, met) in zip(self._evs, self._cells):
            f_ghz, d = float(f[i]), float(duty[i])
            records.append(
                SegmentRecord(
                    name=ev.segment.name,
                    f_ghz=f_ghz,
                    duty=d,
                    time_s=float(t[i]),
                    power_w=float(p[i]),
                    energy_j=float(e[i]),
                    instructions=ev.instructions,
                    llc_refs=ev.memory.llc_refs,
                    llc_misses=ev.memory.llc_misses,
                    stall_fraction=ev.stall_fraction(f_ghz, duty=d),
                    cap_met=True if met is None else bool(met[i]),
                )
            )
        return records
