"""Fields and datasets: named arrays bound to a grid.

A :class:`Field` is a flat NumPy array associated with either the points
or the cells of a grid.  A :class:`DataSet` bundles a
:class:`~repro.data.grid.UniformGrid` with its fields — the unit the
visualization filters consume, mirroring VTK-m's ``DataSet``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .grid import UniformGrid
from .tiling import k_slabs, pick_tile_planes

__all__ = [
    "Association",
    "Field",
    "DataSet",
    "recenter_to_points",
    "recenter_to_cells",
    "recenter_slab_to_cells",
]


class Association(Enum):
    """Where a field's values live."""

    POINT = "point"
    CELL = "cell"


@dataclass
class Field:
    """A named scalar or vector field.

    ``values`` has shape ``(n,)`` for scalars or ``(n, 3)`` for vectors,
    where ``n`` matches the grid's point or cell count per ``association``.
    """

    name: str
    association: Association
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim not in (1, 2):
            raise ValueError(f"field {self.name!r}: values must be 1-D or 2-D")
        if self.values.ndim == 2 and self.values.shape[1] != 3:
            raise ValueError(f"field {self.name!r}: vector fields must have 3 components")

    @property
    def is_vector(self) -> bool:
        return self.values.ndim == 2

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def nbytes(self) -> int:
        return self.values.nbytes

    def range(self) -> tuple[float, float]:
        """(min, max) of scalar values, or of vector magnitudes."""
        if self.is_vector:
            mags = np.linalg.norm(self.values, axis=1)
            return float(mags.min()), float(mags.max())
        return float(self.values.min()), float(self.values.max())


@dataclass
class DataSet:
    """A grid plus its fields — what a filter takes and (often) returns."""

    grid: UniformGrid
    fields: dict[str, Field] = field(default_factory=dict)

    def add_field(
        self, name: str, values: np.ndarray, association: Association = Association.POINT
    ) -> Field:
        """Attach a field, validating its length against the grid."""
        f = Field(name=name, association=association, values=values)
        expected = self.grid.n_points if association is Association.POINT else self.grid.n_cells
        if f.n != expected:
            raise ValueError(
                f"field {name!r} has {f.n} values but grid expects {expected} "
                f"for {association.value}-centered data"
            )
        self.fields[name] = f
        return f

    def field(self, name: str) -> Field:
        try:
            return self.fields[name]
        except KeyError:
            raise KeyError(
                f"no field {name!r}; available: {sorted(self.fields)}"
            ) from None

    def point_field(self, name: str) -> Field:
        """Fetch ``name`` as a point field, recentering a cell field if needed."""
        f = self.field(name)
        if f.association is Association.POINT:
            return f
        return Field(name, Association.POINT, recenter_to_points(self.grid, f.values))

    def cell_field(self, name: str) -> Field:
        """Fetch ``name`` as a cell field, recentering a point field if needed."""
        f = self.field(name)
        if f.association is Association.CELL:
            return f
        return Field(name, Association.CELL, recenter_to_cells(self.grid, f.values))

    @property
    def nbytes(self) -> int:
        """Total bytes held by all fields (the dataset's memory footprint)."""
        return sum(f.nbytes for f in self.fields.values())


def _as_lattice(grid: UniformGrid, values: np.ndarray, *, points: bool) -> np.ndarray:
    """Reshape a flat field to (nz, ny, nx[, 3]) lattice order for averaging."""
    dims = grid.point_dims if points else grid.cell_dims
    nx, ny, nz = dims
    if values.ndim == 1:
        return values.reshape(nz, ny, nx)
    return values.reshape(nz, ny, nx, 3)


def recenter_to_points(grid: UniformGrid, cell_values: np.ndarray) -> np.ndarray:
    """Average cell-centered values to the points (inverse-distance uniform).

    Each point receives the mean of its adjacent cells (1–8 of them,
    fewer on boundaries), matching VTK's ``CellDataToPointData``.
    """
    cell_values = np.asarray(cell_values, dtype=np.float64)
    lat = _as_lattice(grid, cell_values, points=False)
    vec = cell_values.ndim == 2
    pad_width = ((1, 1), (1, 1), (1, 1)) + (((0, 0),) if vec else ())
    padded = np.pad(lat, pad_width, mode="edge")
    # Each point (k, j, i) touches cells (k-1..k, j-1..j, i-1..i); with the
    # edge padding, boundary points correctly re-use the boundary cells.
    acc = (
        padded[:-1, :-1, :-1]
        + padded[:-1, :-1, 1:]
        + padded[:-1, 1:, :-1]
        + padded[:-1, 1:, 1:]
        + padded[1:, :-1, :-1]
        + padded[1:, :-1, 1:]
        + padded[1:, 1:, :-1]
        + padded[1:, 1:, 1:]
    ) / 8.0
    return acc.reshape(grid.n_points, 3) if vec else acc.reshape(grid.n_points)


def recenter_to_cells(grid: UniformGrid, point_values: np.ndarray) -> np.ndarray:
    """Average point-centered values to the cells (mean of the 8 corners).

    Runs :func:`recenter_slab_to_cells` over cache-sized k-slabs into one
    output, for scalar and vector fields alike.
    """
    point_values = np.asarray(point_values, dtype=np.float64)
    lat = _as_lattice(grid, point_values, points=True)
    nx, ny, nz = grid.cell_dims
    out = np.empty((grid.n_cells,) + point_values.shape[1:])
    # Live per cell while a slab is averaged: its corner values and mean.
    planes = pick_tile_planes(nx * ny, 2 * out[0].nbytes, n_planes=nz)
    for k0, k1 in k_slabs(0, nz, planes):
        out[k0 * nx * ny : k1 * nx * ny] = recenter_slab_to_cells(lat[k0 : k1 + 1])
    return out


def recenter_slab_to_cells(lat_slab: np.ndarray) -> np.ndarray:
    """Corner mean over a point-lattice slab view.

    ``lat_slab`` has shape ``(kz + 1, ny + 1, nx + 1)`` for a scalar
    field, or ``(kz + 1, ny + 1, nx + 1, 3)`` for a vector field; returns
    the ``(kz * ny * nx,)`` (or ``(kz * ny * nx, 3)``) cell means in
    linear cell order.  Each mean is ``(c0 + c1 + ... + c7) / 8`` over
    the corners in a fixed order, so a slab's result is bitwise identical
    to the matching rows of any other tiling — :func:`recenter_to_cells`
    tiles the whole lattice with it, and the k-slab-tiled kernels carry
    cell-centered scalars per tile without materializing (or re-reading)
    the full recentered field.
    """
    kz, ny, nx = (int(d) - 1 for d in lat_slab.shape[:3])
    acc = lat_slab[:kz, :ny, :nx].astype(np.float64)
    for dk, dj, di in (
        (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
    ):
        acc += lat_slab[dk : dk + kz, dj : dj + ny, di : di + nx]
    acc /= 8.0
    return acc.reshape((kz * ny * nx,) + lat_slab.shape[3:])
