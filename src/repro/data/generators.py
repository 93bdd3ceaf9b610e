"""Analytic field generators for tests, examples, and standalone benchmarks.

The real experiments visualize the CloverLeaf proxy's energy field; these
generators provide cheap, well-understood stand-ins with known geometry
(spheres, planes, vortices) so every algorithm can be validated against
closed-form answers.

The study's fields (``gaussian_blobs`` energy, the blended velocity of
:func:`make_dataset`) are built in cache-sized k-slabs of whole point
planes (:mod:`repro.data.tiling`): each slab's temporaries stay cache
resident and no field-sized temporary exists, while every element sees
the same operations in the same order, so the fields are bitwise
identical for any tile size.  ``rotation_vector_field`` and ``abc_flow``
take a ``planes=(k0, k1)`` point-plane range for this.
"""

from __future__ import annotations

import numpy as np

from .fields import Association, DataSet
from .grid import UniformGrid
from .tiling import k_slabs, pick_tile_planes

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
    # Squared distance as (dx² + dy²) + dz² from 1-D axis offsets: the
    # add order of the dense row sum over (x, y, z), so bitwise identical
    # without the (n, 3) coordinate array.  The 2-D and 1-D terms are
    # built once per blob; each slab then sums its blobs in order while
    # its d² buffer is cache resident.
    terms = []
    for c in centers:
        dx, dy, dz = x - c[0], y - c[1], z - c[2]
        terms.append(((dx * dx)[None, :] + (dy * dy)[:, None], (dz * dz)[:, None, None]))
    out = np.empty((pz, py, px))
    # Live per point while a slab is built: its output and d² values.
    planes = pick_tile_planes(px * py, 2 * out.itemsize, n_planes=pz)
    buf = np.empty((planes, py, px))
    for k0, k1 in k_slabs(0, pz, planes):
        o, d2 = out[k0:k1], buf[: k1 - k0]
        o.fill(0.0)
        for dxy, dz2 in terms:
            np.add(dxy, dz2[k0:k1], out=d2)
            np.negative(d2, out=d2)
            d2 /= 2.0 * sigma**2
            np.exp(d2, out=d2)
            o += d2
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


def _plane_range(grid: UniformGrid, planes: tuple[int, int] | None) -> tuple[int, int]:
    """Validated ``(k0, k1)`` point-plane range; None is the whole lattice."""
    pz = grid.point_dims[2]
    if planes is None:
        return 0, pz
    k0, k1 = (int(k) for k in planes)
    if not 0 <= k0 <= k1 <= pz:
        raise ValueError(f"planes must satisfy 0 <= k0 <= k1 <= {pz}, got {planes}")
    return k0, k1


def rotation_vector_field(
    grid: UniformGrid, *, axis: int = 2, planes: tuple[int, int] | None = None
) -> np.ndarray:
    """Point vector field: rigid rotation about the grid-center axis.

    Streamlines are exact circles, which the advection tests exploit.
    ``planes=(k0, k1)`` builds only point planes ``[k0, k1)``: the rows
    ``k0 * px * py`` to ``k1 * px * py`` of the whole field.
    """
    px, py, _ = grid.point_dims
    k0, k1 = _plane_range(grid, planes)
    x, y, z = grid.axis_coords()
    cx, cy, cz = grid.center
    # Offsets from the center, each broadcast along its lattice axis.
    d = ((x - cx)[None, None, :], (y - cy)[None, :, None], (z[k0:k1] - cz)[:, None, None])
    v = np.zeros((k1 - k0, py, px, 3))
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
    planes: tuple[int, int] | None = None,
) -> np.ndarray:
    """Point vector field: Arnold–Beltrami–Childress flow (chaotic
    streamlines — a standard particle-advection stress test).

    ``planes=(k0, k1)`` builds only point planes ``[k0, k1)``, as in
    :func:`rotation_vector_field`.
    """
    bounds = grid.bounds
    px, py, _ = grid.point_dims
    k0, k1 = _plane_range(grid, planes)
    # Every term depends on one axis: sin/cos run on the 1-D axis phases
    # and each component is a broadcast sum of two of them.
    x, y, z = (
        (ax - lo) / (hi - lo) * (2.0 * np.pi)
        for ax, (lo, hi) in zip(grid.axis_coords(), bounds)
    )
    x, y, z = x[None, None, :], y[None, :, None], z[k0:k1, None, None]
    v = np.empty((k1 - k0, py, px, 3))
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
        ds.add_field("velocity", _blended_velocity(grid), Association.POINT)
    return ds


def _blended_velocity(grid: UniformGrid) -> np.ndarray:
    """``rotation / scale + 0.35 * abc``, built slab by slab into one array.

    Blends a rotational core with ABC turbulence: mostly bounded
    trajectories (long streamlines) with chaotic structure, like the
    recirculating hydro flows the study advects through.  ``scale`` is
    the rotation's largest magnitude component, ``max(rot.max(),
    -rot.min())``; about the z axis that is the largest ``|x - cx|`` or
    ``|y - cy|``, read here from the 1-D axis offsets, so the whole
    rotation field never exists.
    """
    px, py, pz = grid.point_dims
    x, y, _ = grid.axis_coords()
    cx, cy, _ = grid.center
    scale = max(np.abs(x - cx).max(), np.abs(y - cy).max(), 0.0) or 1.0
    vel = np.empty((pz * py * px, 3))
    # Live per point while a slab is built: three 3-vectors (the two
    # component slabs and the output rows they are added into).
    planes = pick_tile_planes(px * py, 9 * vel.itemsize, n_planes=pz)
    for k0, k1 in k_slabs(0, pz, planes):
        rot = rotation_vector_field(grid, planes=(k0, k1))
        rot /= scale
        abc = abc_flow(grid, planes=(k0, k1))
        abc *= 0.35
        np.add(rot, abc, out=vel[k0 * px * py : k1 * px * py])
    return vel
