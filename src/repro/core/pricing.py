"""Vectorized batch repricing.

The expensive half of answering "what does algorithm X at size S cost
under cap C?" is executing the real algorithm; everything after the
op-count ledger is closed-form.  The expensive half happens once per
(algorithm, size) and dataset recipe: its ledger lands in the one
ledger store, :class:`~repro.core.profiles.ProfileCache`, which the
sweep engine, the service and the advisor share.  No machine enters a
ledger, so one recorded ledger prices on every socket.  This module
makes the cheap half *actually cheap*:

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

``docs/pricing_service.md`` documents the ledger store, the pricing
pass, and the bench methodology behind ``BENCH_advisor.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from collections import OrderedDict

import numpy as np

from ..machine.exec_model import ExecutionModel
from ..machine.power import PowerModel
from ..machine.rapl import RaplController
from ..machine.simulator import SegmentRecord
from ..machine.spec import BROADWELL_E5_2695V4, MachineSpec
from .metrics import Ratios
from .profiles import ProfileCache, profile_from_ledger
from .runner import DEFAULT_VIZ_CYCLES, RunPoint

__all__ = ["BatchRepricer", "PricedPoints"]

#: The name the benchmark's span wrappers and advise workload still use
#: for the one ledger store.
LedgerCache = ProfileCache


def _digest(payload: dict) -> str:
    """SHA-256 over canonical (sorted-key) JSON, truncated to 16 hex chars."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


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
