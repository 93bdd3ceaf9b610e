"""Slice: cut the dataset on three axis-aligned planes.

Per the paper's "three-slice": planes x-y, y-z and x-z through the grid
center.  For each plane a signed-distance point field is computed (the
compute-intensive part the paper calls out), then the contour machinery
extracts the zero-distance surface.  The dominant instruction stream is
the per-point distance evaluation — FP-dense and streaming — which is
why slice lands *above* contour in IPC (Fig. 2b) despite using contour
under the hood.
"""

from __future__ import annotations

import numpy as np

from ..data.fields import Association, DataSet
from ..data.mesh import TriangleMesh
from ..workload import WorkSegment
from .base import Filter, OpCounts, segment_from_cost
from .contour import Contour
from .costs import COSTS

__all__ = ["Slice"]

#: Each plane's normal axis (0 = x, 1 = y, 2 = z) and the shape that
#: broadcasts that 1-D axis over the (pz, py, px) point lattice.
_PLANE_AXIS = {"xy": (2, (-1, 1, 1)), "yz": (0, (1, 1, -1)), "xz": (1, (1, -1, 1))}


class Slice(Filter):
    """Three axis-plane slices through the grid center.

    The original scalar field is interpolated onto the slice surfaces
    (carried through contour's per-vertex machinery is unnecessary for
    the study; the paper's slice output keeps the plane geometry).
    """

    name = "slice"
    n_worklets = 9.0  # (distance + classify + generate) per plane

    def __init__(
        self,
        field: str = "energy",
        planes: tuple[str, ...] = ("xy", "yz", "xz"),
        *,
        chunk_cells: int = 1 << 20,
        keep_output: bool = True,
    ):
        unknown = set(planes) - set(_PLANE_AXIS)
        if unknown:
            raise ValueError(f"unknown plane(s) {sorted(unknown)}; valid: {sorted(_PLANE_AXIS)}")
        self.field = field
        self.planes = tuple(planes)
        self.chunk_cells = int(chunk_cells)
        self.keep_output = keep_output

    def describe(self) -> dict:
        return {"name": self.name, "field": self.field, "planes": self.planes}

    def _apply(self, dataset: DataSet, counts: OpCounts) -> TriangleMesh:
        grid = dataset.grid
        center = grid.center
        axes = grid.axis_coords()
        px, py, pz = grid.point_dims
        mesh = TriangleMesh.empty()
        for plane in self.planes:
            # Signed distance to an axis plane through the center is the
            # offset along its normal axis, broadcast over the lattice:
            # equal to (points - center) @ normal, whose other two terms
            # are signed zeros and whose exact-zero distances are +0.0.
            a, shape = _PLANE_AXIS[plane]
            dist = np.empty((pz, py, px))
            dist[...] = (axes[a] - center[a]).reshape(shape)
            counts.add("points_evaluated", grid.n_points)

            sub = DataSet(grid)
            sub.add_field("__slice_dist", dist.reshape(-1), Association.POINT)
            inner = Contour(
                field="__slice_dist",
                isovalues=[0.0],
                chunk_cells=self.chunk_cells,
                keep_output=self.keep_output,
            )
            inner_counts = OpCounts()
            plane_mesh = inner._apply(sub, inner_counts)
            counts.add("cells_classified", inner_counts["cells_classified"])
            counts.add("active_cells", inner_counts["active_cells"])
            counts.add("triangles", inner_counts["triangles"])
            if self.keep_output and plane_mesh.n_triangles:
                mesh = mesh.merged_with(plane_mesh) if mesh.n_triangles else plane_mesh
        return mesh

    def _segments(self, dataset: DataSet, counts: OpCounts) -> list[WorkSegment]:
        grid = dataset.grid
        point_bytes = float(grid.n_points * 8)
        dist = COSTS[("slice", "distance")]
        cl = COSTS[("slice", "classify")]
        gen = COSTS[("slice", "generate")]
        n_planes = counts["points_evaluated"] / max(grid.n_points, 1)
        return [
            segment_from_cost(
                "distance",
                counts["points_evaluated"],
                dist,
                bytes_read=point_bytes * 3 * n_planes,   # coordinates
                bytes_written=point_bytes * n_planes,    # distance field
                working_set_bytes=point_bytes * 4,
            ),
            segment_from_cost(
                "classify",
                counts["cells_classified"],
                cl,
                bytes_read=point_bytes * n_planes,
                bytes_written=grid.n_cells * n_planes,
                working_set_bytes=point_bytes,
            ),
            segment_from_cost(
                "generate",
                counts["active_cells"],
                gen,
                bytes_read=counts["active_cells"] * 64.0,
                bytes_written=counts["triangles"] * 3 * 32.0,
                working_set_bytes=counts["active_cells"] * 64.0,
            ),
        ]
