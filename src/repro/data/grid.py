"""Uniform structured grids (the CloverLeaf / VTK-m dataset substrate).

A :class:`UniformGrid` is an axis-aligned lattice of hexahedral cells with
uniform spacing — the dataset type every experiment in the paper uses
(CloverLeaf writes its fields on such a grid).  The class provides the
vectorized index plumbing the algorithms need: point coordinates, cell
centers, and the 8-corner point indices of every hexahedral cell in VTK
ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "UniformGrid",
    "HEX_CORNER_OFFSETS",
    "corner_gather",
    "cell_corner_reduce",
    "slab_corner_reduce",
]

# VTK/MC hexahedron corner ordering: bottom face CCW (z=0), then top face
# (z=1).  Column k gives the (di, dj, dk) lattice offset of corner k.
HEX_CORNER_OFFSETS: np.ndarray = np.array(
    [
        (0, 0, 0),  # 0
        (1, 0, 0),  # 1
        (1, 1, 0),  # 2
        (0, 1, 0),  # 3
        (0, 0, 1),  # 4
        (1, 0, 1),  # 5
        (1, 1, 1),  # 6
        (0, 1, 1),  # 7
    ],
    dtype=np.int64,
)


# --------------------------------------------------------------------- gather
# Corner gathers (cell -> 8 point ids) are the hot index plumbing of every
# extraction kernel: contour, threshold, clip, isovolume, and tetclip all
# rebuild it per call.  The mapping depends only on the cell topology
# (cell_dims), never on origin/spacing, so it is cached once per lattice
# shape: a base point id per cell plus the 8 linearized corner strides.
# lru_cache is safe under the pool engine — worker processes each build
# their own cache, and CPython's GIL serializes the dict update so
# concurrent threads at worst compute an entry twice.


@lru_cache(maxsize=4)
def corner_gather(cell_dims: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Cached corner-gather plumbing for a lattice shape.

    Returns ``(base_ids, strides)`` where ``base_ids[c]`` is the point id
    of cell ``c``'s corner 0 and ``strides[k]`` is the linear offset of
    corner ``k`` (VTK order), so ``base_ids[c] + strides`` are the cell's
    8 corner point ids.  Both arrays are read-only views shared by every
    grid with these ``cell_dims`` — callers must not mutate them.
    """
    nx, ny, nz = (int(d) for d in cell_dims)
    px, py = nx + 1, ny + 1
    i = np.arange(nx, dtype=np.int64)
    j = np.arange(ny, dtype=np.int64)
    k = np.arange(nz, dtype=np.int64)
    base = (i[None, None, :] + px * (j[None, :, None] + py * k[:, None, None])).reshape(-1)
    di, dj, dk = HEX_CORNER_OFFSETS[:, 0], HEX_CORNER_OFFSETS[:, 1], HEX_CORNER_OFFSETS[:, 2]
    strides = di + px * (dj + py * dk)
    base.setflags(write=False)
    strides.setflags(write=False)
    return base, strides


def slab_corner_reduce(lat_slab: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
    """8-corner reduce over a point-lattice slab view.

    ``lat_slab`` has shape ``(kz + 1, ny + 1, nx + 1)`` — the point
    planes of a ``kz``-plane run of cells.  Returns the flat
    ``(kz * ny * nx,)`` per-cell reduction in linear cell order.  The
    shifted-view applications run in the same corner order as the full
    reduce, so the result is bitwise identical to the matching rows of
    ``cell_corner_reduce`` over the whole lattice — the property the
    k-slab-tiled kernels (:mod:`repro.data.tiling`) rely on.
    """
    kz, ny, nx = (int(d) - 1 for d in lat_slab.shape)
    out = lat_slab[:kz, :ny, :nx].copy()
    for di, dj, dk in HEX_CORNER_OFFSETS[1:]:
        ufunc(out, lat_slab[dk : dk + kz, dj : dj + ny, di : di + nx], out=out)
    return out.reshape(-1)


def cell_corner_reduce(
    cell_dims: tuple[int, int, int], point_values: np.ndarray, ufunc: np.ufunc
) -> np.ndarray:
    """Reduce a point field over each cell's 8 corners with ``ufunc``.

    Equivalent to ``ufunc.reduce(point_values[grid.cell_point_ids()],
    axis=1)`` but computed as 7 shifted-lattice-view applications, never
    materializing the ``(n_cells, 8)`` gather.  This is the interval/
    classification fast path: ``np.minimum``/``np.maximum`` give the
    corner value interval; feeding a 0/1 array through ``np.add`` counts
    inside corners.
    """
    nx, ny, nz = (int(d) for d in cell_dims)
    lat = np.asarray(point_values).reshape(nz + 1, ny + 1, nx + 1)
    return slab_corner_reduce(lat, ufunc)


@dataclass(frozen=True)
class UniformGrid:
    """An axis-aligned uniform hexahedral grid.

    Parameters
    ----------
    cell_dims:
        Number of cells along (x, y, z).  A "128^3 dataset" in the paper
        is ``cell_dims=(128, 128, 128)``.
    origin:
        World-space position of point (0, 0, 0).
    spacing:
        Cell edge length along each axis.
    """

    cell_dims: tuple[int, int, int]
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self) -> None:
        if len(self.cell_dims) != 3 or any(int(d) < 1 for d in self.cell_dims):
            raise ValueError(f"cell_dims must be 3 positive ints, got {self.cell_dims}")
        if any(s <= 0 for s in self.spacing):
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        object.__setattr__(self, "cell_dims", tuple(int(d) for d in self.cell_dims))

    # ------------------------------------------------------------------ sizes
    @property
    def point_dims(self) -> tuple[int, int, int]:
        """Number of points along each axis (cells + 1)."""
        nx, ny, nz = self.cell_dims
        return (nx + 1, ny + 1, nz + 1)

    @property
    def n_cells(self) -> int:
        nx, ny, nz = self.cell_dims
        return nx * ny * nz

    @property
    def n_points(self) -> int:
        px, py, pz = self.point_dims
        return px * py * pz

    @property
    def bounds(self) -> np.ndarray:
        """World-space bounds as ``[[xmin, xmax], [ymin, ymax], [zmin, zmax]]``."""
        lo = np.asarray(self.origin, dtype=np.float64)
        extent = np.asarray(self.cell_dims, dtype=np.float64) * np.asarray(self.spacing)
        return np.stack([lo, lo + extent], axis=1)

    @property
    def diagonal(self) -> float:
        """Length of the grid's world-space diagonal."""
        b = self.bounds
        return float(np.linalg.norm(b[:, 1] - b[:, 0]))

    @property
    def center(self) -> np.ndarray:
        """World-space center of the grid."""
        return self.bounds.mean(axis=1)

    # --------------------------------------------------------------- indexing
    def point_index(self, i: np.ndarray, j: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Flatten lattice point coordinates to linear point ids (x fastest)."""
        px, py, _ = self.point_dims
        return np.asarray(i) + px * (np.asarray(j) + py * np.asarray(k))

    def cell_index(self, i: np.ndarray, j: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Flatten lattice cell coordinates to linear cell ids (x fastest)."""
        nx, ny, _ = self.cell_dims
        return np.asarray(i) + nx * (np.asarray(j) + ny * np.asarray(k))

    def cell_ijk(self, cell_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Inverse of :meth:`cell_index`."""
        nx, ny, _ = self.cell_dims
        cid = np.asarray(cell_ids)
        i = cid % nx
        j = (cid // nx) % ny
        k = cid // (nx * ny)
        return i, j, k

    def cell_point_ids(self, cell_ids: np.ndarray | None = None) -> np.ndarray:
        """Point ids of the 8 corners of each cell, VTK-ordered.

        Returns an ``(n, 8)`` int array.  With ``cell_ids=None``, covers
        every cell in the grid (row ``c`` is cell ``c``).  The index
        plumbing (one base id per cell + 8 corner strides) comes from the
        shared :func:`corner_gather` cache, so repeated extractions over
        the same lattice shape skip the ijk decompose/re-linearize work.
        """
        base, strides = corner_gather(self.cell_dims)
        if cell_ids is not None:
            base = base[np.asarray(cell_ids, dtype=np.int64)]
        return base[:, None] + strides[None, :]

    # ------------------------------------------------------------- geometry
    def axis_coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """World-space point coordinates along each axis: ``(x, y, z)``.

        Three 1-D float arrays of lengths ``point_dims``.  Point ``(i, j,
        k)`` sits at ``(x[i], y[j], z[k])`` with the same ``origin + index
        * spacing`` arithmetic as :meth:`point_coords`, so a field built
        from these axes broadcast over the ``(pz, py, px)`` lattice is
        bitwise identical to one built from the dense ``(n, 3)``
        coordinate array — without ever allocating it.
        """
        return tuple(
            np.asarray(o + np.arange(p, dtype=np.int64) * s, dtype=np.float64)
            for o, p, s in zip(self.origin, self.point_dims, self.spacing)
        )

    def point_coords(self, point_ids: np.ndarray | None = None) -> np.ndarray:
        """World-space coordinates of points as an ``(n, 3)`` float array."""
        px, py, pz = self.point_dims
        if point_ids is None:
            # Full-grid fast path: broadcast the three 1-D axis coordinate
            # arrays instead of decomposing every point id.
            x, y, z = self.axis_coords()
            out = np.empty((pz, py, px, 3), dtype=np.float64)
            out[..., 0] = x[None, None, :]
            out[..., 1] = y[None, :, None]
            out[..., 2] = z[:, None, None]
            return out.reshape(-1, 3)
        ox, oy, oz = self.origin
        sx, sy, sz = self.spacing
        pid = np.asarray(point_ids, dtype=np.int64)
        i = pid % px
        j = (pid // px) % py
        k = pid // (px * py)
        return np.stack([ox + i * sx, oy + j * sy, oz + k * sz], axis=-1).astype(np.float64)

    def cell_centers(self, cell_ids: np.ndarray | None = None) -> np.ndarray:
        """World-space centers of cells as an ``(n, 3)`` float array."""
        if cell_ids is None:
            cell_ids = np.arange(self.n_cells, dtype=np.int64)
        i, j, k = self.cell_ijk(np.asarray(cell_ids, dtype=np.int64))
        ox, oy, oz = self.origin
        sx, sy, sz = self.spacing
        return np.stack(
            [ox + (i + 0.5) * sx, oy + (j + 0.5) * sy, oz + (k + 0.5) * sz], axis=-1
        ).astype(np.float64)

    def world_to_lattice(self, points: np.ndarray) -> np.ndarray:
        """Convert world coordinates to continuous lattice coordinates."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return (pts - np.asarray(self.origin)) / np.asarray(self.spacing)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask: which world-space points lie inside the grid bounds."""
        lat = self.world_to_lattice(points)
        dims = np.asarray(self.cell_dims, dtype=np.float64)
        return np.all((lat >= 0.0) & (lat <= dims), axis=-1)

    # ----------------------------------------------------------------- misc
    @classmethod
    def cube(cls, n: int, *, extent: float = 1.0) -> "UniformGrid":
        """An ``n^3``-cell grid spanning ``[0, extent]^3`` (the paper's shape)."""
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        h = extent / n
        return cls(cell_dims=(n, n, n), origin=(0.0, 0.0, 0.0), spacing=(h, h, h))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        nx, ny, nz = self.cell_dims
        return f"UniformGrid({nx}x{ny}x{nz} cells, origin={self.origin}, spacing={self.spacing})"
