"""Cache-sized k-slab tiling for lattice kernels.

The extraction kernels sweep structured lattices whose 256³ working sets
(135 MB per point field) thrash the last-level cache when processed in
one pass.  Because the linear cell index runs x-fastest and k-slowest, a
*k-slab* — a contiguous range of cell planes ``[k0, k1)`` — is also a
contiguous range of linear cell ids, so slab-by-slab processing changes
neither the order cells are visited in nor any per-cell arithmetic: the
tiled kernels stay bitwise identical to the untiled ones while their
per-tile working set (field slab + derived per-cell arrays) fits in
cache.

Three knobs pick the tile size, in priority order:

1. ``REPRO_TILE_CELLS`` (environment) — explicit cells-per-tile target;
2. the caller's ``ceiling`` (a filter's ``chunk_cells`` memory bound);
3. :data:`DEFAULT_TILE_BYTES` divided by the caller's estimated
   bytes-per-cell (derived from the field's ``nbytes``).

Tiles are always whole k-planes (at least one), so a tile of a
``(nx, ny, nz)`` lattice is ``planes * nx * ny`` cells.

:func:`shard_spans` splits the k-axis into near-even contiguous spans —
the unit of the sweep engine's shard tasks.  Spans are a pure function
of ``(nz, n_shards)``, so every worker decomposes a lattice identically
and merged ledgers are deterministic.
"""

from __future__ import annotations

import os
from typing import Iterator

__all__ = [
    "DEFAULT_TILE_BYTES",
    "ENV_TILE_CELLS",
    "tile_cells_from_env",
    "pick_tile_planes",
    "k_slabs",
    "shard_spans",
]

#: Target bytes of per-tile working data (field slab plus the per-cell
#: arrays derived from it).  Sized well under typical LLC capacities so
#: repeated passes over a tile (10 isovalue tests, min+max reductions)
#: hit cache instead of DRAM.
DEFAULT_TILE_BYTES = 1 << 23

#: Environment override: cells per tile (rounded up to whole k-planes).
ENV_TILE_CELLS = "REPRO_TILE_CELLS"


def tile_cells_from_env() -> int | None:
    """The ``REPRO_TILE_CELLS`` override, or None when unset.

    Raises
    ------
    ValueError
        If the variable is set to something that is not a positive
        whole number (e.g. ``REPRO_TILE_CELLS=big``).
    """
    raw = os.environ.get(ENV_TILE_CELLS, "").strip()
    if not raw:
        return None
    try:
        cells = int(raw, 10)
    except ValueError:
        raise ValueError(
            f"{ENV_TILE_CELLS} must be a whole number of cells per tile "
            f"(e.g. {ENV_TILE_CELLS}=262144), got {raw!r}"
        ) from None
    if cells < 1:
        raise ValueError(f"{ENV_TILE_CELLS} must be positive, got {cells}")
    return cells


def pick_tile_planes(
    plane_cells: int,
    bytes_per_cell: float,
    *,
    n_planes: int,
    ceiling_cells: int | None = None,
) -> int:
    """Cell planes per tile for a lattice with ``plane_cells`` cells/plane.

    ``bytes_per_cell`` is the caller's estimate of working bytes per cell
    (field slab plus derived arrays) — typically ``field.nbytes /
    grid.n_cells`` times the number of live per-cell arrays.  The result
    is clamped to ``[1, n_planes]`` and, when ``ceiling_cells`` is given
    (a filter's ``chunk_cells`` memory bound), the tile never exceeds it
    unless a single plane already does.
    """
    if plane_cells < 1:
        raise ValueError(f"plane_cells must be positive, got {plane_cells}")
    env = tile_cells_from_env()
    if env is not None:
        target_cells = env
    else:
        target_cells = int(DEFAULT_TILE_BYTES / max(bytes_per_cell, 1e-9))
        if ceiling_cells is not None:
            target_cells = min(target_cells, int(ceiling_cells))
    planes = max(1, target_cells // plane_cells)
    return min(planes, max(int(n_planes), 1))


def k_slabs(k_lo: int, k_hi: int, planes_per_tile: int) -> Iterator[tuple[int, int]]:
    """Yield ``(k0, k1)`` cell-plane ranges tiling ``[k_lo, k_hi)``.

    Ranges are contiguous, ascending, and cover the span exactly; the
    last slab may be ragged.  An empty span yields nothing.
    """
    if planes_per_tile < 1:
        raise ValueError(f"planes_per_tile must be positive, got {planes_per_tile}")
    for k0 in range(k_lo, k_hi, planes_per_tile):
        yield k0, min(k0 + planes_per_tile, k_hi)


def shard_spans(n_planes: int, n_shards: int) -> list[tuple[int, int]]:
    """Split ``n_planes`` cell planes into ``n_shards`` contiguous spans.

    Spans are near-even (sizes differ by at most one plane), ascending,
    and exhaustive.  Shards beyond ``n_planes`` collapse to empty spans
    at the tail so every shard index stays valid — an empty span simply
    contributes nothing to the merge.
    """
    if n_planes < 0:
        raise ValueError(f"n_planes must be non-negative, got {n_planes}")
    if n_shards < 1:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    base, extra = divmod(n_planes, n_shards)
    spans: list[tuple[int, int]] = []
    k = 0
    for shard in range(n_shards):
        size = base + (1 if shard < extra else 0)
        spans.append((k, k + size))
        k += size
    return spans
