"""Spherical clip: cull geometry inside a sphere.

Per the paper: cells fully inside the sphere are dropped, cells fully
outside pass through whole, and straddling cells are subdivided with the
part inside the sphere removed.  The implicit keep-function is
``g(p) = |p - center| - radius`` (non-negative outside the sphere).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ..data.fields import Association, DataSet, recenter_slab_to_cells
from ..data.grid import corner_gather
from ..data.mesh import CellSubset, TetMesh
from ..data.tiling import k_slabs, pick_tile_planes
from ..workload import WorkSegment
from .base import Filter, OpCounts, segment_from_cost
from .costs import COSTS
from .tetclip import _assemble_tets, classify_slab, cut_cell_batch

__all__ = ["SphericalClip", "ClipOutput"]

#: Estimated live working bytes per cell for a one-sided grid clip tile:
#: the g slab (8 B/point ≈ 8 B/cell), its sign field, the uint8 corner
#: counts, and the straddle/kept index scratch.
_TILE_BYTES_PER_CELL = 40.0


@dataclass
class ClipOutput:
    """Whole kept cells plus the cut tetrahedra along the sphere."""

    kept: CellSubset
    cut: TetMesh

    def total_volume(self, cell_volume: float) -> float:
        """Exact retained volume (whole cells + cut tets)."""
        return self.kept.n_cells * cell_volume + self.cut.total_volume()


def _kept_cell_values(
    state: SimpleNamespace, k0: int, k1: int, kept_local: np.ndarray
) -> np.ndarray:
    """Cell scalars for kept cells of slab ``[k0, k1)``.

    Point fields are recentered per slab in the exact corner order of a
    full-lattice recenter (bitwise identical to ``cell_field()`` +
    gather); native cell fields are sliced directly; vector fields fall
    back to the dense gather precomputed in the state.
    """
    if state.cell_lat is not None:
        return state.cell_lat[k0:k1].reshape(-1)[kept_local]
    if state.point_lat is not None:
        return recenter_slab_to_cells(state.point_lat[k0 : k1 + 1])[kept_local]
    nx, ny, _ = state.grid.cell_dims
    return state.cell_scal_dense[kept_local + k0 * ny * nx]


class SphericalClip(Filter):
    """Clip away the inside of a sphere.

    Default geometry matches the study's renderings: the sphere sits at
    the grid center with radius one third of the grid diagonal.
    """

    name = "clip"
    n_worklets = 4.0  # evaluate + classify + cut + copy

    def __init__(
        self,
        field: str = "energy",
        center: tuple[float, float, float] | None = None,
        radius: float | None = None,
        *,
        chunk_cells: int = 1 << 20,
        keep_output: bool = True,
    ):
        self.field = field
        self.center = center
        self.radius = radius
        self.chunk_cells = int(chunk_cells)
        self.keep_output = keep_output

    def describe(self) -> dict:
        return {
            "name": self.name,
            "field": self.field,
            "center": self.center,
            "radius": self.radius,
        }

    supports_sharding = True

    def _apply(self, dataset: DataSet, counts: OpCounts) -> ClipOutput:
        state = self._shard_state(dataset)
        payload = self._apply_span(state, counts, 0, dataset.grid.cell_dims[2])
        return self._finish(state, counts, payload)

    def _shard_state(self, dataset: DataSet) -> SimpleNamespace:
        grid = dataset.grid
        center = np.asarray(self.center if self.center is not None else grid.center)
        radius = self.radius if self.radius is not None else grid.diagonal / 3.0

        nx, ny, nz = grid.cell_dims
        x, y, z = grid.axis_coords()
        # Separable distance evaluation: |p - c| over a uniform lattice
        # is sqrt((dx² + dy²) + dz²) with one squared-offset array per
        # axis, broadcast per slab.  Same axis coordinates as
        # point_coords() and the same add order NumPy's norm uses over a
        # length-3 axis, so g is bitwise identical to the dense
        # norm(points - center) — without ever materializing the (n, 3)
        # coordinate array or its (n,) distance temporaries.
        dx, dy, dz = x - center[0], y - center[1], z - center[2]
        scalars = dataset.point_field(self.field).values
        field = dataset.field(self.field)
        return SimpleNamespace(
            grid=grid,
            radius=float(radius),
            xy2=(dx * dx)[None, :] + (dy * dy)[:, None],  # (py, px)
            dz2=dz * dz,                                  # (pz,)
            s_flat=scalars if scalars.ndim == 1 else None,
            cell_lat=(
                field.values.reshape(nz, ny, nx)
                if field.association is Association.CELL and not field.is_vector
                else None
            ),
            point_lat=(
                scalars.reshape(nz + 1, ny + 1, nx + 1) if scalars.ndim == 1 else None
            ),
            # Vector fields have no slab recenter; keep parity with the
            # dense cell_field() gather instead (rare, never hot).
            cell_scal_dense=(
                dataset.cell_field(self.field).values if scalars.ndim != 1 else None
            ),
            tile=pick_tile_planes(
                nx * ny, _TILE_BYTES_PER_CELL, n_planes=nz, ceiling_cells=self.chunk_cells
            ),
        )

    def _apply_span(
        self, state: SimpleNamespace, counts: OpCounts, k_lo: int, k_hi: int
    ) -> SimpleNamespace:
        grid = state.grid
        nx, ny, nz = grid.cell_dims
        px, py = nx + 1, ny + 1
        kept_chunks: list[np.ndarray] = []
        kept_val_chunks: list[np.ndarray] = []
        pts_chunks: list[np.ndarray] = []
        val_chunks: list[np.ndarray] = []
        n_straddle = 0
        n_tets_cut = 0
        for k0, k1 in k_slabs(k_lo, k_hi, state.tile):
            kz = k1 - k0
            g_slab = np.sqrt(state.xy2[None, :, :] + state.dz2[k0 : k1 + 1, None, None])
            g_slab -= state.radius
            n_in = classify_slab(g_slab)
            kept_local = np.nonzero(n_in == 8)[0]
            straddle_local = np.nonzero((n_in > 0) & (n_in < 8))[0]
            cell_base = k0 * ny * nx
            n_straddle += straddle_local.size
            if kept_local.size:
                kept_chunks.append(kept_local + cell_base)
                kept_val_chunks.append(_kept_cell_values(state, k0, k1, kept_local))
            if straddle_local.size:
                base_l, strides = corner_gather((nx, ny, kz))
                for start in range(0, straddle_local.size, self.chunk_cells):
                    loc = straddle_local[start : start + self.chunk_cells]
                    lpids = base_l[loc][:, None] + strides[None, :]
                    gv = g_slab.reshape(-1)[lpids]
                    sv = (
                        state.s_flat[lpids + k0 * px * py]
                        if state.s_flat is not None
                        else gv
                    )
                    pts, vals, n_out = cut_cell_batch(
                        grid, loc + cell_base, gv, sv, self.keep_output
                    )
                    n_tets_cut += n_out
                    if self.keep_output and pts is not None:
                        pts_chunks.append(pts)
                        val_chunks.append(vals)
        # Shard point ownership: planes [k_lo, k_hi), plus the last
        # lattice plane for the span that ends the grid — spans sum to
        # exactly n_points.
        planes = (k_hi - k_lo) + (1 if k_hi == nz else 0)
        counts.add("points_evaluated", planes * px * py)
        counts.add("cells_classified", (k_hi - k_lo) * ny * nx)
        counts.add("cells_kept_whole", sum(c.size for c in kept_chunks))
        counts.add("cells_straddling", n_straddle)
        counts.add("tets_cut", n_straddle * 6)
        counts.add("tets_emitted", n_tets_cut)
        return SimpleNamespace(
            kept=kept_chunks,
            kept_vals=kept_val_chunks,
            pts=pts_chunks,
            vals=val_chunks,
        )

    def _finish(
        self, state: SimpleNamespace, counts: OpCounts, payload: SimpleNamespace
    ) -> ClipOutput:
        kept_ids = (
            np.concatenate(payload.kept) if payload.kept else np.empty(0, dtype=np.int64)
        )
        kept_scal = np.concatenate(payload.kept_vals) if payload.kept_vals else np.empty(0)
        cut = (
            _assemble_tets(payload.pts, payload.vals) if self.keep_output else TetMesh.empty()
        )
        return ClipOutput(kept=CellSubset(kept_ids, kept_scal), cut=cut)

    def _segments(self, dataset: DataSet, counts: OpCounts) -> list[WorkSegment]:
        grid = dataset.grid
        point_bytes = float(grid.n_points * 8)
        ev = COSTS[("clip", "evaluate")]
        cl = COSTS[("clip", "classify")]
        cut = COSTS[("clip", "cut")]
        cp = COSTS[("clip", "copy")]
        return [
            segment_from_cost(
                "evaluate",
                counts["points_evaluated"],
                ev,
                bytes_read=point_bytes * 3,          # xyz coordinates
                bytes_written=point_bytes,           # distance field
                working_set_bytes=point_bytes * 4,
            ),
            segment_from_cost(
                "classify",
                counts["cells_classified"],
                cl,
                bytes_read=point_bytes,
                bytes_written=grid.n_cells * 1.0,
                working_set_bytes=point_bytes,
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
