"""Analytic field generators for tests, examples, and standalone benchmarks.

The real experiments visualize the CloverLeaf proxy's energy field; these
generators provide cheap, well-understood stand-ins with known geometry
(spheres, planes, vortices) so every algorithm can be validated against
closed-form answers.
"""

from __future__ import annotations

import numpy as np

from .fields import Association, DataSet
from .grid import UniformGrid

__all__ = [
    "sphere_distance",
    "linear_ramp",
    "gaussian_blobs",
    "tangle_field",
    "rotation_vector_field",
    "abc_flow",
    "make_dataset",
]


def sphere_distance(grid: UniformGrid, *, center: np.ndarray | None = None) -> np.ndarray:
    """Point field: Euclidean distance from ``center`` (default: grid center)."""
    c = grid.center if center is None else np.asarray(center, dtype=np.float64)
    return np.linalg.norm(grid.point_coords() - c, axis=1)


def linear_ramp(grid: UniformGrid, *, direction: tuple[float, float, float] = (1.0, 0.0, 0.0)) -> np.ndarray:
    """Point field: signed distance along ``direction`` — the simplest
    field whose isosurfaces are exact planes (used heavily by tests)."""
    d = np.asarray(direction, dtype=np.float64)
    norm = np.linalg.norm(d)
    if norm == 0:
        raise ValueError("direction must be non-zero")
    return grid.point_coords() @ (d / norm)


def gaussian_blobs(
    grid: UniformGrid,
    *,
    n_blobs: int = 4,
    width: float = 0.15,
    seed: int = 7,
) -> np.ndarray:
    """Point field: sum of Gaussian bumps at seeded random positions.

    ``width`` is the Gaussian sigma as a fraction of the grid diagonal.
    """
    rng = np.random.default_rng(seed)
    b = grid.bounds
    centers = b[:, 0] + rng.random((n_blobs, 3)) * (b[:, 1] - b[:, 0])
    sigma = width * grid.diagonal
    x, y, z = grid.axis_coords()
    px, py, pz = grid.point_dims
    out = np.zeros((pz, py, px))
    d2 = np.empty_like(out)
    for c in centers:
        # Squared distance as (dx² + dy²) + dz² from 1-D axis offsets:
        # the add order of the dense row sum over (x, y, z), so bitwise
        # identical without the (n, 3) coordinate array.
        dx, dy, dz = x - c[0], y - c[1], z - c[2]
        np.add((dx * dx)[None, :] + (dy * dy)[:, None], (dz * dz)[:, None, None], out=d2)
        np.negative(d2, out=d2)
        d2 /= 2.0 * sigma**2
        np.exp(d2, out=d2)
        out += d2
    return out.reshape(-1)


def tangle_field(grid: UniformGrid) -> np.ndarray:
    """Point field: the classic "tangle" implicit function used in
    isosurfacing demos; produces a multi-component, high-curvature surface."""
    b = grid.bounds
    # Map the grid into [-3, 3]^3 where the tangle is defined.
    p = (grid.point_coords() - b[:, 0]) / (b[:, 1] - b[:, 0]) * 6.0 - 3.0
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    return (
        x**4 - 5.0 * x**2 + y**4 - 5.0 * y**2 + z**4 - 5.0 * z**2 + 11.8
    ) * 0.2 + 0.5


def rotation_vector_field(grid: UniformGrid, *, axis: int = 2) -> np.ndarray:
    """Point vector field: rigid rotation about the grid-center axis.

    Streamlines are exact circles, which the advection tests exploit.
    """
    px, py, pz = grid.point_dims
    x, y, z = grid.axis_coords()
    cx, cy, cz = grid.center
    # Offsets from the center, each broadcast along its lattice axis.
    d = ((x - cx)[None, None, :], (y - cy)[None, :, None], (z - cz)[:, None, None])
    v = np.zeros((pz, py, px, 3))
    a, bax = {0: (1, 2), 1: (2, 0), 2: (0, 1)}[axis]
    np.negative(d[bax], out=v[..., a])
    v[..., bax] = d[a]
    return v.reshape(-1, 3)


def abc_flow(
    grid: UniformGrid,
    *,
    a: float = 1.0,
    b: float = np.sqrt(2.0 / 3.0),
    c: float = np.sqrt(1.0 / 3.0),
) -> np.ndarray:
    """Point vector field: Arnold–Beltrami–Childress flow (chaotic
    streamlines — a standard particle-advection stress test)."""
    bounds = grid.bounds
    px, py, pz = grid.point_dims
    # Every term depends on one axis: sin/cos run on the 1-D axis phases
    # and each component is a broadcast sum of two of them.
    x, y, z = (
        (ax - lo) / (hi - lo) * (2.0 * np.pi)
        for ax, (lo, hi) in zip(grid.axis_coords(), bounds)
    )
    x, y, z = x[None, None, :], y[None, :, None], z[:, None, None]
    v = np.empty((pz, py, px, 3))
    np.add(a * np.sin(z), c * np.cos(y), out=v[..., 0])
    np.add(b * np.sin(x), a * np.cos(z), out=v[..., 1])
    np.add(c * np.sin(y), b * np.cos(x), out=v[..., 2])
    return v.reshape(-1, 3)


def make_dataset(
    n: int,
    *,
    kind: str = "blobs",
    with_velocity: bool = True,
    seed: int = 7,
) -> DataSet:
    """Build an ``n^3``-cell dataset with a scalar field named ``energy``
    (matching the CloverLeaf field the paper renders) and optionally a
    ``velocity`` vector field for advection.

    ``kind`` selects the scalar: ``blobs``, ``sphere``, ``ramp``, or
    ``tangle``.
    """
    grid = UniformGrid.cube(n)
    ds = DataSet(grid)
    if kind == "blobs":
        scalar = gaussian_blobs(grid, seed=seed)
    elif kind == "sphere":
        scalar = sphere_distance(grid)
    elif kind == "ramp":
        scalar = linear_ramp(grid)
    elif kind == "tangle":
        scalar = tangle_field(grid)
    else:
        raise ValueError(f"unknown dataset kind {kind!r}")
    ds.add_field("energy", scalar, Association.POINT)
    if with_velocity:
        # Blend a rotational core with ABC turbulence: mostly bounded
        # trajectories (long streamlines) with chaotic structure, like
        # the recirculating hydro flows the study advects through.
        # In place: rot / scale + 0.35 * abc, same per-element order.
        rot = rotation_vector_field(grid)
        rot /= max(rot.max(), -rot.min()) or 1.0
        abc = abc_flow(grid)
        abc *= 0.35
        rot += abc
        ds.add_field("velocity", rot, Association.POINT)
    return ds
