"""Ray tracing: render the dataset's external surface from orbit cameras.

Per the paper, the algorithm has three steps whose *data-intensive*
parts dominate: gather triangles and find external faces, build a
spatial acceleration structure (BVH), then trace rays.  The external
surface of a structured grid scales as N² — the paper's observation
that an 8× bigger dataset yields only a 4× face increase falls straight
out of this geometry.

The profile scales the traced images up to the study's 50-image
database per cycle (rendering a handful of real images and multiplying,
since orbit views cost the same on average) — recorded in
EXPERIMENTS.md.
"""

from __future__ import annotations

import numpy as np

from ..data.fields import DataSet
from ..data.grid import UniformGrid
from ..workload import WorkSegment
from .base import Filter, OpCounts, mix_per, segment_from_cost
from .bvh import Bvh, TraversalStats
from .costs import COSTS, mix_kwargs
from .render import ColorMap, Image, orbit_cameras

__all__ = ["RayTracer", "external_surface"]


def external_surface(
    grid: UniformGrid, cell_scalars: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extract the grid's external faces as triangles.

    Returns ``(points, triangles, tri_scalars)``: the grid's boundary
    points in point-id order, and the six boundary faces, two triangles
    per boundary quad, indexed into those points, each colored by its
    owning boundary cell's scalar.  Only boundary points are built — at
    256³ that is ≈393 K of the lattice's 17 M — with the same coordinate
    values as :meth:`UniformGrid.point_coords`.
    """
    nx, ny, nz = grid.cell_dims
    px, py, pz = grid.point_dims
    quads: list[np.ndarray] = []
    scals: list[np.ndarray] = []

    lat = cell_scalars.reshape(nz, ny, nx)

    # The point planes k = 0 and k = nz lie wholly on the surface; every
    # plane between them contributes only its outer ring.
    ring = np.ones((py, px), dtype=bool)
    ring[1:-1, 1:-1] = False
    ring_id = np.cumsum(ring.ravel()) - 1
    n_plane = px * py
    n_ring = int(ring_id[-1]) + 1

    def pid(i, j, k):
        """Surface point id of lattice point ``(i, j, k)``."""
        local = i + px * j
        plane_start = np.where(k == 0, 0, n_plane + (k - 1) * n_ring)
        return plane_start + np.where((k == 0) | (k == nz), local, ring_id[local])

    x, y, z = grid.axis_coords()
    plane_j, plane_i = np.divmod(np.arange(n_plane), px)
    ring_j, ring_i = np.nonzero(ring)
    pi = np.concatenate([plane_i, np.tile(ring_i, nz - 1), plane_i])
    pj = np.concatenate([plane_j, np.tile(ring_j, nz - 1), plane_j])
    pk = np.concatenate(
        [np.zeros(n_plane, np.int64), np.repeat(np.arange(1, nz), n_ring), np.full(n_plane, nz)]
    )
    points = np.stack([x[pi], y[pj], z[pk]], axis=1)

    # For each of the six faces build the quad corner point ids.
    faces = [
        # (fixed axis, fixed value, cell slice selector)
        ("x", 0), ("x", nx), ("y", 0), ("y", ny), ("z", 0), ("z", nz),
    ]
    for axis, val in faces:
        if axis == "x":
            j, k = np.meshgrid(np.arange(ny), np.arange(nz), indexing="ij")
            c0 = pid(val, j, k)
            c1 = pid(val, j + 1, k)
            c2 = pid(val, j + 1, k + 1)
            c3 = pid(val, j, k + 1)
            sc = lat[k, j, 0 if val == 0 else nx - 1]
        elif axis == "y":
            i, k = np.meshgrid(np.arange(nx), np.arange(nz), indexing="ij")
            c0 = pid(i, val, k)
            c1 = pid(i + 1, val, k)
            c2 = pid(i + 1, val, k + 1)
            c3 = pid(i, val, k + 1)
            sc = lat[k, 0 if val == 0 else ny - 1, i]
        else:
            i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
            c0 = pid(i, j, val)
            c1 = pid(i + 1, j, val)
            c2 = pid(i + 1, j + 1, val)
            c3 = pid(i, j + 1, val)
            sc = lat[0 if val == 0 else nz - 1, j, i]
        quad = np.stack([c0.ravel(), c1.ravel(), c2.ravel(), c3.ravel()], axis=1)
        quads.append(quad)
        scals.append(sc.ravel())

    quad_arr = np.vstack(quads)
    scal_arr = np.concatenate(scals)
    # Two triangles per quad, same scalar.
    t1 = quad_arr[:, [0, 1, 2]]
    t2 = quad_arr[:, [0, 2, 3]]
    triangles = np.vstack([t1, t2])
    tri_scalars = np.concatenate([scal_arr, scal_arr])
    return points, triangles, tri_scalars


class RayTracer(Filter):
    """BVH ray tracer producing an orbit image database.

    Parameters
    ----------
    n_images:
        Images actually traced per execution.
    images_per_cycle:
        The study's database size; the profile is scaled by
        ``images_per_cycle / n_images``.
    resolution:
        (width, height) of each image.
    """

    name = "raytrace"
    n_worklets = 5.0  # extract + triangulate + build + trace + shade

    def __init__(
        self,
        field: str = "energy",
        *,
        n_images: int = 2,
        images_per_cycle: int = 50,
        resolution: tuple[int, int] = (128, 128),
        leaf_size: int = 4,
    ):
        if n_images < 1 or images_per_cycle < n_images:
            raise ValueError("need 1 <= n_images <= images_per_cycle")
        self.field = field
        self.n_images = int(n_images)
        self.images_per_cycle = int(images_per_cycle)
        self.resolution = (int(resolution[0]), int(resolution[1]))
        self.leaf_size = int(leaf_size)

    def describe(self) -> dict:
        return {
            "name": self.name,
            "field": self.field,
            "n_images": self.n_images,
            "images_per_cycle": self.images_per_cycle,
            "resolution": self.resolution,
        }

    def _apply(self, dataset: DataSet, counts: OpCounts) -> list[Image]:
        grid = dataset.grid
        cell_scal = dataset.cell_field(self.field).values
        points, triangles, tri_scalars = external_surface(grid, cell_scal)
        counts.add("surface_triangles", triangles.shape[0])

        bvh = Bvh(points, triangles, leaf_size=self.leaf_size)
        counts.add("bvh_nodes", bvh.n_nodes)
        counts.add("bvh_bytes", bvh.nbytes)

        lo, hi = float(cell_scal.min()), float(cell_scal.max())
        span = hi - lo if hi > lo else 1.0
        cmap = ColorMap()
        w, h = self.resolution
        stats = TraversalStats()
        images: list[Image] = []
        cams = orbit_cameras(grid.bounds, self.n_images)
        for cam in cams:
            origins, dirs = cam.rays(w, h)
            t_hit, tri_idx = bvh.trace(origins, dirs, stats)
            img = Image.blank(w, h, color=(0.08, 0.08, 0.10))
            hit = tri_idx >= 0
            if hit.any():
                # Map back: BVH reordered triangles by Morton code, but
                # carries original vertex indices; recover scalars via a
                # lookup of reordered rows against the originals.
                scal = self._tri_scalar(bvh, triangles, tri_scalars, tri_idx[hit])
                shade = self._lambert(bvh, dirs[hit], tri_idx[hit])
                rgb = cmap((scal - lo) / span) * shade[:, None]
                flat = img.rgb.reshape(-1, 3)
                flat[hit] = rgb
            images.append(img)
        counts.add("rays", stats.rays)
        counts.add("node_visits", stats.node_visits)
        counts.add("tri_tests", stats.tri_tests)
        return images

    @staticmethod
    def _tri_scalar(
        bvh: Bvh, triangles: np.ndarray, tri_scalars: np.ndarray, hit_rows: np.ndarray
    ) -> np.ndarray:
        # bvh.tris rows are a Morton permutation of `triangles`; map a
        # BVH hit row back to its original triangle's scalar.
        return tri_scalars[bvh.source_rows[hit_rows]]

    def _lambert(self, bvh: Bvh, dirs: np.ndarray, hit_rows: np.ndarray) -> np.ndarray:
        tri = bvh.tris[hit_rows]
        p0 = bvh.points[tri[:, 0]]
        e1 = bvh.points[tri[:, 1]] - p0
        e2 = bvh.points[tri[:, 2]] - p0
        n = np.cross(e1, e2)
        nl = np.linalg.norm(n, axis=1, keepdims=True)
        n = np.divide(n, nl, out=np.zeros_like(n), where=nl > 0)
        # Headlight shading.
        return 0.25 + 0.75 * np.abs(np.einsum("ij,ij->i", n, -dirs))

    def _segments(self, dataset: DataSet, counts: OpCounts) -> list[WorkSegment]:
        scale = self.images_per_cycle / self.n_images
        ex = COSTS[("raytrace", "extract")]
        bd = COSTS[("raytrace", "build")]
        vi = COSTS[("raytrace", "visit")]
        te = COSTS[("raytrace", "test")]
        tris = counts["surface_triangles"]
        bvh_bytes = max(counts["bvh_bytes"], 1.0)
        return [
            segment_from_cost(
                "extract",
                tris,
                ex,
                bytes_read=tris * 8.0 * 4,
                bytes_written=tris * 3 * 28.0,
                working_set_bytes=tris * 100.0,
            ),
            segment_from_cost(
                "build",
                tris,
                bd,
                bytes_read=tris * 96.0,
                bytes_written=bvh_bytes,
                working_set_bytes=bvh_bytes,
            ),
            WorkSegment(
                name="trace",
                mix=(
                    mix_per(counts["node_visits"], **mix_kwargs(vi))
                    + mix_per(counts["tri_tests"], **mix_kwargs(te))
                ).scaled(scale),
                bytes_read=(counts["node_visits"] * 12.0 + counts["tri_tests"] * 24.0) * scale,
                bytes_written=counts["rays"] * 12.0 * scale,
                working_set_bytes=bvh_bytes,
                pattern=vi.pattern,
                mlp=vi.mlp,
                parallel_efficiency=vi.parallel_efficiency,
                extra_stall_cycles=(
                    counts["node_visits"] * vi.stall_cycles
                    + counts["tri_tests"] * te.stall_cycles
                ) * scale,
            ),
        ]
