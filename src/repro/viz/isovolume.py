"""Isovolume: keep the region where ``lo <= scalar <= hi``.

Per the paper, isovolume is clip with a scalar range instead of an
implicit surface: cells fully inside the range pass through, cells fully
outside are removed, straddling cells are subdivided.  Implemented as
two sequential tetrahedral clips — first against ``scalar - lo >= 0``,
then the survivors against ``hi - scalar >= 0`` — exactly how VTK's
two-sided isovolume composes one-sided clips.  The double pass over the
scalar field plus the heavy tet output is what gives isovolume the
highest LLC miss rate in the study (Fig. 2c).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ..data.fields import Association, DataSet
from ..data.grid import corner_gather, slab_corner_reduce
from ..data.mesh import CellSubset, TetMesh
from ..data.tiling import k_slabs, pick_tile_planes
from ..workload import WorkSegment
from .base import Filter, OpCounts, segment_from_cost
from .clip import _kept_cell_values
from .costs import COSTS
from .tetclip import _assemble_tets, clip_tet_soup, cut_cell_batch

__all__ = ["Isovolume", "IsovolumeOutput"]

#: Live working bytes per cell for one fused isovolume tile: the scalar
#: slab (8 B/point ≈ 8 B/cell), two sign fields, two uint8 corner-count
#: arrays, and the kept/straddle index scratch.
_TILE_BYTES_PER_CELL = 56.0


@dataclass
class IsovolumeOutput:
    """Whole kept cells plus cut tets from both range boundaries."""

    kept: CellSubset
    cut: TetMesh

    def total_volume(self, cell_volume: float) -> float:
        return self.kept.n_cells * cell_volume + self.cut.total_volume()


class Isovolume(Filter):
    """Two-sided scalar-range clip.

    Default range is the middle half of the field's value range (25th to
    75th percentile of the span), which keeps a substantial volume with
    two active boundaries — matching the study's rendering.
    """

    name = "isovolume"
    n_worklets = 6.0  # two classify/cut/copy passes

    def __init__(
        self,
        field: str = "energy",
        lo: float | None = None,
        hi: float | None = None,
        *,
        chunk_cells: int = 1 << 20,
        keep_output: bool = True,
    ):
        self.field = field
        self.lo = lo
        self.hi = hi
        self.chunk_cells = int(chunk_cells)
        self.keep_output = keep_output

    def describe(self) -> dict:
        return {"name": self.name, "field": self.field, "lo": self.lo, "hi": self.hi}

    supports_sharding = True

    def _apply(self, dataset: DataSet, counts: OpCounts) -> IsovolumeOutput:
        state = self._shard_state(dataset)
        payload = self._apply_span(state, counts, 0, dataset.grid.cell_dims[2])
        return self._finish(state, counts, payload)

    def _shard_state(self, dataset: DataSet) -> SimpleNamespace:
        grid = dataset.grid
        s = dataset.point_field(self.field).values
        if s.ndim != 1:
            raise ValueError("isovolume requires a scalar field")
        vmin, vmax = float(s.min()), float(s.max())
        lo = self.lo if self.lo is not None else vmin + 0.25 * (vmax - vmin)
        hi = self.hi if self.hi is not None else vmin + 0.75 * (vmax - vmin)
        if lo > hi:
            raise ValueError(f"lo ({lo}) must not exceed hi ({hi})")

        nx, ny, nz = grid.cell_dims
        field = dataset.field(self.field)
        return SimpleNamespace(
            grid=grid,
            s=s,
            lat=s.reshape(nz + 1, ny + 1, nx + 1),
            lo=lo,
            hi=hi,
            cell_lat=(
                field.values.reshape(nz, ny, nx)
                if field.association is Association.CELL
                else None
            ),
            point_lat=s.reshape(nz + 1, ny + 1, nx + 1),
            cell_scal_dense=None,
            tile=pick_tile_planes(
                nx * ny, _TILE_BYTES_PER_CELL, n_planes=nz, ceiling_cells=self.chunk_cells
            ),
        )

    def _apply_span(
        self, state: SimpleNamespace, counts: OpCounts, k_lo: int, k_hi: int
    ) -> SimpleNamespace:
        # Fused two-sided classification: one sweep over the scalar slab
        # computes both boundary sign counts (s >= lo and s <= hi — the
        # same sign tests the sequential s-lo / hi-s formulation makes),
        # so the scalar field is read once per tile instead of twice per
        # pass over the whole grid.  Cells splitting at the lo boundary
        # are cut against g = s - lo; survivors of pass 1 splitting at
        # the hi boundary are cut against g = hi - s — exactly VTK's
        # composed one-sided clips, with identical counts per pass.
        grid = state.grid
        lo, hi = state.lo, state.hi
        nx, ny, _ = grid.cell_dims
        px, py = nx + 1, ny + 1
        kept2_chunks: list[np.ndarray] = []
        kept2_val_chunks: list[np.ndarray] = []
        pts1_chunks: list[np.ndarray] = []
        val1_chunks: list[np.ndarray] = []
        pts2_chunks: list[np.ndarray] = []
        val2_chunks: list[np.ndarray] = []
        n_straddle1 = 0
        n_straddle2 = 0
        n_kept1 = 0
        n_tets_cut1 = 0
        n_tets_cut2 = 0
        for k0, k1 in k_slabs(k_lo, k_hi, state.tile):
            kz = k1 - k0
            slab = state.lat[k0 : k1 + 1]
            n_lo = slab_corner_reduce((slab >= lo).view(np.uint8), np.add)
            n_hi = slab_corner_reduce((slab <= hi).view(np.uint8), np.add)
            kept1_local = np.nonzero(n_lo == 8)[0]
            straddle1_local = np.nonzero((n_lo > 0) & (n_lo < 8))[0]
            n_hi_k = n_hi[kept1_local]
            kept2_local = kept1_local[n_hi_k == 8]
            straddle2_local = kept1_local[(n_hi_k > 0) & (n_hi_k < 8)]
            cell_base = k0 * ny * nx
            n_kept1 += kept1_local.size
            n_straddle1 += straddle1_local.size
            n_straddle2 += straddle2_local.size
            if kept2_local.size:
                kept2_chunks.append(kept2_local + cell_base)
                kept2_val_chunks.append(_kept_cell_values(state, k0, k1, kept2_local))
            base_l, strides = corner_gather((nx, ny, kz))
            s_slab_flat = slab.reshape(-1)
            for boundary_local, sign, pts_chunks, val_chunks in (
                (straddle1_local, +1, pts1_chunks, val1_chunks),
                (straddle2_local, -1, pts2_chunks, val2_chunks),
            ):
                if boundary_local.size == 0:
                    continue
                for start in range(0, boundary_local.size, self.chunk_cells):
                    loc = boundary_local[start : start + self.chunk_cells]
                    lpids = base_l[loc][:, None] + strides[None, :]
                    sv = s_slab_flat[lpids]
                    gv = sv - lo if sign > 0 else hi - sv
                    pts, vals, n_out = cut_cell_batch(
                        grid, loc + cell_base, gv, sv, self.keep_output
                    )
                    if sign > 0:
                        n_tets_cut1 += n_out
                    else:
                        n_tets_cut2 += n_out
                    if self.keep_output and pts is not None:
                        pts_chunks.append(pts)
                        val_chunks.append(vals)
        counts.add("cells_classified", (k_hi - k_lo) * ny * nx)
        counts.add("tets_cut", n_straddle1 * 6)
        counts.add("cells_classified", n_kept1)
        counts.add("tets_cut", n_straddle2 * 6)
        counts.add("cells_kept_whole", sum(c.size for c in kept2_chunks))
        counts.add("tets_emitted", n_tets_cut1 + n_tets_cut2)
        return SimpleNamespace(
            kept=kept2_chunks,
            kept_vals=kept2_val_chunks,
            pts1=pts1_chunks,
            vals1=val1_chunks,
            pts2=pts2_chunks,
            vals2=val2_chunks,
        )

    def _finish(
        self, state: SimpleNamespace, counts: OpCounts, payload: SimpleNamespace
    ) -> IsovolumeOutput:
        kept_ids = (
            np.concatenate(payload.kept) if payload.kept else np.empty(0, dtype=np.int64)
        )
        kept_scal = np.concatenate(payload.kept_vals) if payload.kept_vals else np.empty(0)

        # Pass 2b: pass-1 cut tets clipped against scalar <= hi.  Only
        # reachable with keep_output=True (the counting configuration
        # never materializes the pass-1 soup, matching the sequential
        # formulation where an empty r1.cut skips the soup clip and its
        # ledger contribution).
        cut1 = _assemble_tets(payload.pts1, payload.vals1)
        if cut1.n_tets:
            g2 = state.hi - np.asarray(cut1.scalars)
            cut1b, straddling = clip_tet_soup(cut1, g2, keep_output=self.keep_output)
            counts.add("tets_cut", straddling)
            counts.add("tets_emitted", cut1b.n_tets)
        else:
            cut1b = TetMesh.empty()

        cut2 = (
            _assemble_tets(payload.pts2, payload.vals2) if self.keep_output else TetMesh.empty()
        )
        cut = cut2.merged_with(cut1b) if cut1b.n_tets else cut2
        return IsovolumeOutput(kept=CellSubset(kept_ids, kept_scal), cut=cut)

    def apply_shard(
        self, dataset: DataSet, counts: OpCounts, shard: int, n_shards: int
    ) -> None:
        if self.keep_output:
            # Pass 2b's ledger contribution lives in _finish and needs
            # the merged pass-1 soup; shard ledgers are only exact for
            # the counting configuration the engine profiles with.
            raise ValueError("isovolume shard ledgers require keep_output=False")
        super().apply_shard(dataset, counts, shard, n_shards)

    def _segments(self, dataset: DataSet, counts: OpCounts) -> list[WorkSegment]:
        grid = dataset.grid
        point_bytes = float(grid.n_points * 8)
        cl = COSTS[("isovolume", "classify")]
        cut = COSTS[("isovolume", "cut")]
        cp = COSTS[("isovolume", "copy")]
        return [
            segment_from_cost(
                "classify",
                counts["cells_classified"],
                cl,
                bytes_read=point_bytes * 2.0,  # two passes over the scalar
                bytes_written=counts["cells_classified"] * 1.0,
                working_set_bytes=point_bytes,
                reuse_passes=2.0,
            ),
            segment_from_cost(
                "cut",
                counts["tets_cut"],
                cut,
                bytes_read=counts["tets_cut"] * 4 * 16.0,
                bytes_written=counts["tets_emitted"] * 4 * 32.0,
                working_set_bytes=counts["tets_emitted"] * 128.0,
            ),
            segment_from_cost(
                "copy",
                counts["cells_kept_whole"],
                cp,
                bytes_read=counts["cells_kept_whole"] * 48.0,
                bytes_written=counts["cells_kept_whole"] * 48.0,
                working_set_bytes=counts["cells_kept_whole"] * 48.0,
            ),
        ]
