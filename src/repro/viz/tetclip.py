"""Tetrahedral clipping: the geometric engine behind clip and isovolume.

Both filters keep the region where an implicit function ``g`` is
non-negative.  Cells fully inside are passed through whole; cells fully
outside are dropped; straddling cells are decomposed into six
tetrahedra (:data:`repro.data.mc_tables.CUBE_TETS`) and each tet is cut
against ``g = 0`` — the paper's "the cell is subdivided into two parts
... and each part is handled as before".

The per-case cut topology (which sub-tets a sign pattern produces) is
generated programmatically, like the MC tables, so it is correct by
construction; the property tests verify exact volumes against
closed-form answers (e.g. a half-space clip keeps exactly half the
cube's volume).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..data.grid import HEX_CORNER_OFFSETS, UniformGrid, slab_corner_reduce
from ..data.mc_tables import CUBE_TETS
from ..data.mesh import TetMesh

__all__ = [
    "tet_cut_recipes",
    "clip_tet_soup",
    "classify_slab",
    "cut_cell_batch",
]

# A recipe vertex is ("c", corner_index) — an original tet corner kept —
# or ("e", i, j) — the g=0 crossing on edge (i, j), always ordered with
# the *inside* endpoint first so interpolation is uniform.
Recipe = list[list[tuple]]


@lru_cache(maxsize=1)
def tet_cut_recipes() -> dict[int, Recipe]:
    """Per-sign-case cut topology for one tetrahedron.

    Case bit ``i`` is set when corner ``i`` is inside (``g >= 0``).
    Each recipe is a list of output tets over recipe vertices.
    """
    recipes: dict[int, Recipe] = {}
    for case in range(16):
        inside = [i for i in range(4) if (case >> i) & 1]
        outside = [i for i in range(4) if not (case >> i) & 1]
        if not inside:
            recipes[case] = []
        elif len(inside) == 4:
            recipes[case] = [[("c", 0), ("c", 1), ("c", 2), ("c", 3)]]
        elif len(inside) == 1:
            p = inside[0]
            q, r, s = outside
            recipes[case] = [[("c", p), ("e", p, q), ("e", p, r), ("e", p, s)]]
        elif len(inside) == 3:
            a, b, c = inside
            q = outside[0]
            recipes[case] = [
                [("c", a), ("c", b), ("c", c), ("e", a, q)],
                [("c", b), ("c", c), ("e", a, q), ("e", b, q)],
                [("c", c), ("e", a, q), ("e", b, q), ("e", c, q)],
            ]
        else:  # two inside, two outside: a triangular prism, 3 tets
            a, b = inside
            c, d = outside
            prism = [
                ("c", a), ("e", a, c), ("e", a, d),
                ("c", b), ("e", b, c), ("e", b, d),
            ]
            recipes[case] = [
                [prism[0], prism[1], prism[2], prism[3]],
                [prism[1], prism[2], prism[3], prism[4]],
                [prism[2], prism[3], prism[4], prism[5]],
            ]
    return recipes


def classify_slab(g_slab_lat: np.ndarray) -> np.ndarray:
    """Inside-corner counts for a point-``g`` lattice slab.

    ``g_slab_lat`` has shape ``(kz + 1, py, px)``; returns the flat
    uint8 ``(kz * ny * nx,)`` count of corners with ``g >= 0`` per cell,
    bitwise identical to the matching rows of the full-lattice
    classification (same sign test, same corner add order).
    """
    return slab_corner_reduce((g_slab_lat >= 0.0).view(np.uint8), np.add)


def cut_cell_batch(
    grid: UniformGrid,
    cell_ids: np.ndarray,
    gv: np.ndarray,
    sv: np.ndarray,
    keep_output: bool,
) -> tuple[np.ndarray | None, np.ndarray | None, int]:
    """Decompose straddling cells into cube tets and cut against ``g >= 0``.

    ``gv``/``sv`` are ``(n, 8)`` corner g / carried-scalar values in VTK
    corner order; world positions are derived from the global
    ``cell_ids``.  Corner g / scalar / position per cell, per cube tet,
    are cut as one batched ``(n*6, 4)`` call instead of six passes.
    Returns ``(points, values, n_tets_out)`` like :func:`_cut_tets`.
    """
    spacing = np.asarray(grid.spacing)
    corner_off = HEX_CORNER_OFFSETS.astype(np.float64) * spacing
    tets_arr = np.asarray(CUBE_TETS, dtype=np.int64)  # (6, 4) corner ids
    i, j, k = grid.cell_ijk(np.asarray(cell_ids, dtype=np.int64))
    origins = np.stack([i, j, k], axis=1) * spacing + np.asarray(grid.origin)
    tg = gv[:, tets_arr].reshape(-1, 4)                   # (ns*6, 4)
    ts = sv[:, tets_arr].reshape(-1, 4)
    tet_off = corner_off[tets_arr]                        # (6, 4, 3)
    tpos = (origins[:, None, None, :] + tet_off[None, :, :, :]).reshape(-1, 4, 3)
    return _cut_tets(tpos, tg, ts, keep_output)


def _assemble_tets(
    pts_chunks: list[np.ndarray], val_chunks: list[np.ndarray]
) -> TetMesh:
    """Concatenate tet-major point/value chunks into one soup mesh."""
    if not pts_chunks:
        return TetMesh.empty()
    points = np.vstack(pts_chunks)
    values = np.concatenate(val_chunks)
    tets = np.arange(points.shape[0], dtype=np.int64).reshape(-1, 4)
    return TetMesh(points, tets, values)


def clip_tet_soup(
    mesh: TetMesh, g_values: np.ndarray, *, keep_output: bool = True
) -> tuple[TetMesh, int]:
    """Clip an unstructured tet soup against per-point ``g >= 0``.

    Returns the clipped mesh and the number of tets that needed cutting
    (straddling input tets).  Scalars are interpolated to new vertices.
    """
    if mesh.n_tets == 0:
        return TetMesh.empty(), 0
    g = np.asarray(g_values, dtype=np.float64)
    if g.shape[0] != mesh.n_points:
        raise ValueError("g_values must be per-point")
    scal = mesh.scalars if mesh.scalars is not None else g

    tpos = mesh.points[mesh.tets]          # (n, 4, 3)
    tg = g[mesh.tets]                      # (n, 4)
    ts = scal[mesh.tets]
    pts, vals, n_cut_tets = _cut_tets(tpos, tg, ts, keep_output)
    straddling = int(np.any(tg >= 0, axis=1).sum() - np.all(tg >= 0, axis=1).sum())
    if not keep_output or pts is None:
        return TetMesh.empty(), straddling
    tets = np.arange(pts.shape[0], dtype=np.int64).reshape(-1, 4)
    return TetMesh(pts, tets, vals), straddling


def _cut_tets(
    tpos: np.ndarray, tg: np.ndarray, tscal: np.ndarray, keep_output: bool
) -> tuple[np.ndarray | None, np.ndarray | None, int]:
    """Cut a batch of tets against g >= 0; returns (points, scalars, n_tets).

    ``tpos`` is (n, 4, 3); ``tg``/``tscal`` are (n, 4).  Output points
    are tet-major: rows 4i..4i+3 form one tet.
    """
    inside = tg >= 0.0
    cases = inside @ (1 << np.arange(4))
    recipes = tet_cut_recipes()

    if not keep_output:
        # Counting only: one histogram instead of 15 scans.
        case_counts = np.bincount(cases, minlength=16)
        n_out = int(sum(case_counts[c] * len(recipes[c]) for c in range(1, 16)))
        return None, None, n_out

    out_pts: list[np.ndarray] = []
    out_vals: list[np.ndarray] = []
    n_out = 0
    for case in range(1, 16):
        rows = np.nonzero(cases == case)[0]
        if rows.size == 0:
            continue
        recipe = recipes[case]
        n_out += rows.size * len(recipe)
        pos = tpos[rows]
        gv = tg[rows]
        sv = tscal[rows]
        for tet_recipe in recipe:
            verts_p = np.empty((rows.size, 4, 3))
            verts_s = np.empty((rows.size, 4))
            for vi, rv in enumerate(tet_recipe):
                if rv[0] == "c":
                    c = rv[1]
                    verts_p[:, vi] = pos[:, c]
                    verts_s[:, vi] = sv[:, c]
                else:
                    _, a, b = rv
                    t = gv[:, a] / (gv[:, a] - gv[:, b])
                    verts_p[:, vi] = pos[:, a] + t[:, None] * (pos[:, b] - pos[:, a])
                    verts_s[:, vi] = sv[:, a] + t * (sv[:, b] - sv[:, a])
            out_pts.append(verts_p.reshape(-1, 3))
            out_vals.append(verts_s.reshape(-1))
    if not out_pts:
        return None, None, n_out
    return np.vstack(out_pts), np.concatenate(out_vals), n_out
