"""Filter infrastructure: execution, op counting, and work profiles.

Every algorithm is a :class:`Filter`.  ``execute(dataset)`` runs the real
(vectorized NumPy) algorithm, records *what it did* in an
:class:`OpCounts` ledger (cells scanned, triangles emitted, rays traced,
...), and converts the ledger into a :class:`~repro.workload.WorkProfile`
using the filter's per-operation cost constants.  The profile — not the
Python wall time — is what the simulated machine executes, because the
profile describes the work a VTK-m/TBB implementation of the same
algorithm performs on the study's Broadwell node.

**The ledger contract.**  The ledger records the *semantic* work of the
algorithm (cells classified, triangles emitted, samples taken), not the
work the Python implementation happened to do.  Implementation
optimizations — interval culling, gather caches, active-set compaction —
must therefore leave every ledger entry bitwise identical: a culled
contour still "classifies" every cell at every isovalue, because the
modeled VTK-m worklet does.  ``tests/viz/test_golden_ledgers.py`` pins
this with recorded reference ledgers per (algorithm, size).

A fixed **framework segment** models VTK-m's per-worklet dispatch
overhead (scheduling, allocation, connectivity setup).  It is the same
size regardless of dataset size, which is what pushes measured IPC *down*
at 32³ and lets it rise with dataset size for the lightweight
cell-centered algorithms — the paper's Fig. 4 trend.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

from ..data.fields import DataSet
from ..data.tiling import shard_spans
from ..obs.trace import span
from ..workload import AccessPattern, InstructionMix, WorkProfile, WorkSegment

__all__ = [
    "OpCounts",
    "FilterResult",
    "Filter",
    "framework_segment",
    "mix_per",
    "segment_from_cost",
]

def mix_per(
    count: float,
    *,
    fp: float = 0.0,
    simd: float = 0.0,
    int_alu: float = 0.0,
    load: float = 0.0,
    store: float = 0.0,
    branch: float = 0.0,
    other: float = 0.0,
) -> InstructionMix:
    """Instruction mix for ``count`` operations at the given per-op costs."""
    return InstructionMix(
        fp=fp * count,
        simd=simd * count,
        int_alu=int_alu * count,
        load=load * count,
        store=store * count,
        branch=branch * count,
        other=other * count,
    )


@dataclass
class OpCounts:
    """Ledger of data-dependent quantities recorded during a real run."""

    counts: dict[str, float] = field(default_factory=dict)

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + float(amount)

    def __getitem__(self, key: str) -> float:
        return self.counts.get(key, 0.0)

    def __contains__(self, key: str) -> bool:
        return key in self.counts

    def as_dict(self) -> dict[str, float]:
        return dict(self.counts)


@dataclass
class FilterResult:
    """Real output geometry plus the workload description of producing it."""

    output: Any
    profile: WorkProfile
    counts: OpCounts


# VTK-m-style dispatch overhead per worklet invocation: scheduling,
# dynamic allocation, array handle plumbing.  Instruction count is
# independent of the dataset; low-ILP pointer chasing.
_FRAMEWORK_INSTR_PER_WORKLET = 6.0e6
_FRAMEWORK_BYTES_PER_WORKLET = 2.0e6


def framework_segment(n_worklets: float) -> WorkSegment:
    """Dispatch/allocation overhead for ``n_worklets`` worklet launches."""
    mix = mix_per(
        n_worklets * _FRAMEWORK_INSTR_PER_WORKLET / 10.0,
        int_alu=3.0,
        load=3.0,
        store=1.5,
        branch=1.5,
        other=1.0,
    )
    return WorkSegment(
        name="framework",
        mix=mix,
        bytes_read=n_worklets * _FRAMEWORK_BYTES_PER_WORKLET,
        bytes_written=n_worklets * _FRAMEWORK_BYTES_PER_WORKLET * 0.5,
        working_set_bytes=8.0e6,
        pattern=AccessPattern.RANDOM,
        mlp=1.5,
        parallel_efficiency=0.35,  # dispatch is mostly serial
        extra_stall_cycles=n_worklets * _FRAMEWORK_INSTR_PER_WORKLET * 1.2,
    )


def segment_from_cost(
    name: str,
    n_ops: float,
    cost,
    *,
    bytes_read: float,
    bytes_written: float,
    working_set_bytes: float,
    reuse_passes: float = 1.0,
) -> WorkSegment:
    """Build a segment from an op count and its :class:`PhaseCost`.

    Centralizes how per-op costs (instruction mix, stall cycles, memory
    character) turn into a :class:`~repro.workload.WorkSegment`, so the
    calibration surface stays in ``costs.py``.
    """
    from .costs import mix_kwargs  # local import avoids a module cycle at init

    return WorkSegment(
        name=name,
        mix=mix_per(n_ops, **mix_kwargs(cost)),
        bytes_read=bytes_read,
        bytes_written=bytes_written,
        working_set_bytes=max(working_set_bytes, 1.0),
        pattern=cost.pattern,
        reuse_passes=reuse_passes,
        mlp=cost.mlp,
        parallel_efficiency=cost.parallel_efficiency,
        extra_stall_cycles=n_ops * cost.stall_cycles,
    )


class Filter(ABC):
    """Base class for the eight study algorithms.

    Subclasses implement :meth:`_apply` (the real algorithm; must fill
    the op ledger) and :meth:`_segments` (ledger → work segments).
    """

    #: Study name, e.g. ``"contour"`` — used in tables and the registry.
    name: str = "filter"

    #: Worklet launches per execution (for the framework segment).
    n_worklets: float = 3.0

    #: Whether this filter implements the k-span sharding hooks
    #: (:meth:`_shard_state` / :meth:`_apply_span` / :meth:`_finish`)
    #: that engine shard tasks run through :meth:`apply_shard`.
    supports_sharding: bool = False

    def execute(self, dataset: DataSet) -> FilterResult:
        """Run the algorithm on ``dataset``; return geometry + profile.

        Each phase runs under a telemetry span (no-ops when no tracer is
        configured): ``kernel`` wraps the whole execution, with
        ``kernel-apply`` (the real algorithm) and ``kernel-profile``
        (ledger → work profile) nested inside — a traced sweep shows
        where each algorithm's wall time actually goes.
        """
        counts = OpCounts()
        with span("kernel", algorithm=self.name, n_cells=dataset.grid.n_cells):
            with span("kernel-apply", algorithm=self.name):
                output = self._apply(dataset, counts)
            with span("kernel-profile", algorithm=self.name):
                profile = self.profile_from_counts(dataset, counts)
        return FilterResult(output=output, profile=profile, counts=counts)

    def profile_from_counts(self, dataset: DataSet, counts: OpCounts) -> WorkProfile:
        """Build the work profile from a previously recorded op ledger.

        The ledger is the expensive part (it comes from running the real
        algorithm); the cost mapping is cheap, so cached ledgers can be
        re-priced after calibration changes without re-execution.
        """
        profile = WorkProfile(
            name=self.name,
            n_elements=dataset.grid.n_cells,
            metadata={"counts": counts.as_dict(), "params": self.describe()},
        )
        profile.add(framework_segment(self.n_worklets))
        # Phases with no work (e.g. a clip that cut nothing) are dropped
        # rather than carried as degenerate segments.
        profile.extend(s for s in self._segments(dataset, counts) if s.mix.total > 0)
        profile.validate()
        return profile

    @abstractmethod
    def _apply(self, dataset: DataSet, counts: OpCounts) -> Any:
        """Execute the real algorithm, recording op counts."""

    @abstractmethod
    def _segments(self, dataset: DataSet, counts: OpCounts) -> list[WorkSegment]:
        """Convert the op ledger into work segments."""

    # ------------------------------------------------------------- sharding
    # A shardable filter decomposes into three hooks: `_shard_state`
    # (one-time validation + read-only precomputation), `_apply_span`
    # (process cell planes [k_lo, k_hi), recording that span's ledger
    # and returning a payload), and `_finish` (assemble the payload into
    # the output).  The serial `_apply` is one span covering the whole
    # lattice; engine shard tasks run one span each via `apply_shard`
    # and sum the span ledgers, bitwise equal to the serial ledger
    # because every entry is an integer-valued float.

    def _shard_state(self, dataset: DataSet) -> Any:
        raise NotImplementedError(f"{self.name} does not support sharding")

    def _apply_span(self, state: Any, counts: OpCounts, k_lo: int, k_hi: int) -> Any:
        raise NotImplementedError(f"{self.name} does not support sharding")

    def _finish(self, state: Any, counts: OpCounts, payload: Any) -> Any:
        raise NotImplementedError(f"{self.name} does not support sharding")

    def apply_shard(
        self, dataset: DataSet, counts: OpCounts, shard: int, n_shards: int
    ) -> None:
        """Record the ledger of one k-span shard (engine shard tasks).

        Ledger-only: no geometry is assembled and `_finish` never runs,
        so this is exact for the counting configuration
        (``keep_output=False``) the sweep engine profiles with — filters
        whose `_finish` adds ledger entries when output is kept must
        reject that configuration here.
        """
        if not self.supports_sharding:
            raise ValueError(f"{self.name} does not support sharding")
        nz = dataset.grid.cell_dims[2]
        k_lo, k_hi = shard_spans(nz, int(n_shards))[int(shard)]
        if k_lo >= k_hi:
            return
        state = self._shard_state(dataset)
        self._apply_span(state, counts, k_lo, k_hi)

    def describe(self) -> dict[str, Any]:
        """Parameters for reports; subclasses extend."""
        return {"name": self.name}
