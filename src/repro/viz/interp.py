"""Trilinear interpolation of point fields at arbitrary world positions.

Shared by particle advection (velocity lookups) and volume rendering
(scalar samples along rays).  Fully vectorized over query positions.

The work is laid out axis-major: the lattice coordinates are one
``(3, m)`` array transformed, floored and clamped in place, so every
per-axis fraction and weight is a contiguous 1-D array.  The arithmetic
and its order are fixed — a last-bit change can move the step at which a
particle leaves the grid, and with it the pinned advection ledger — so
three rules hold:

* each corner weight is ``(wx * wy) * wz``;
* corners accumulate in the order dz → dy → dx;
* the accumulator starts at zero, so signed zeros in the weights
  never reach the result.
"""

from __future__ import annotations

import numpy as np

from ..data.grid import UniformGrid

__all__ = ["trilinear"]


def trilinear(
    grid: UniformGrid, values: np.ndarray, positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Interpolate a point field at world-space ``positions``.

    Parameters
    ----------
    values:
        Point field, shape ``(n_points,)`` or ``(n_points, 3)``.
    positions:
        Query points, shape ``(m, 3)``.

    Returns
    -------
    (result, inside):
        ``result`` has shape ``(m,)`` or ``(m, 3)``; entries for
        out-of-bounds queries are zero.  ``inside`` is the boolean
        in-bounds mask.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    m = positions.shape[0]
    lat = np.subtract(positions.T, np.asarray(grid.origin)[:, None], out=np.empty((3, m)))
    lat /= np.asarray(grid.spacing)[:, None]
    dims = np.asarray(grid.cell_dims, dtype=np.float64)[:, None]
    inside = np.all((lat >= 0.0) & (lat <= dims), axis=0)

    # Clamp so boundary points use the last cell with frac = 1.
    cell = np.floor(lat)
    np.minimum(cell, dims - 1.0, out=cell)
    np.maximum(cell, 0.0, out=cell)
    ijk = cell.astype(np.int64)
    lat -= ijk
    np.clip(lat, 0.0, 1.0, out=lat)

    px, py, _ = grid.point_dims
    base = ijk[2] * py
    base += ijk[1]
    base *= px
    base += ijk[0]

    fx, fy, fz = lat
    wx = (1.0 - fx, fx)
    wy = (1.0 - fy, fy)
    wz = (1.0 - fz, fz)

    vec = values.ndim == 2
    out = np.zeros((m,) + values.shape[1:])
    for dz in (0, 1):
        for dy in (0, 1):
            for dx in (0, 1):
                w = wx[dx] * wy[dy]
                w *= wz[dz]
                corner = values.take(base + (dx + px * (dy + py * dz)), axis=0)
                corner *= w[:, None] if vec else w
                out += corner
    out[~inside] = 0.0
    return out, inside
