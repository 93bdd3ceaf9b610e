"""Tiling primitives: tile sizing, k-slab iteration, shard spans."""

import numpy as np
import pytest

from repro.data import recenter_slab_to_cells, slab_corner_reduce
from repro.data.fields import recenter_to_cells
from repro.data.grid import UniformGrid, cell_corner_reduce
from repro.data.tiling import (
    DEFAULT_TILE_BYTES,
    ENV_TILE_CELLS,
    k_slabs,
    pick_tile_planes,
    shard_spans,
    tile_cells_from_env,
)


class TestPickTilePlanes:
    def test_targets_cache_budget(self):
        # 255x255 plane of 48-byte cells: the 8 MiB default budget holds
        # floor(8Mi/48/65025) = 2 planes.
        planes = pick_tile_planes(255 * 255, 48.0, n_planes=255)
        assert planes == int(DEFAULT_TILE_BYTES / 48.0) // (255 * 255)
        assert planes >= 1

    def test_small_grid_is_one_tile(self):
        assert pick_tile_planes(31 * 31, 48.0, n_planes=31) == 31

    def test_never_below_one_plane(self):
        # A plane larger than the whole budget still ships one plane.
        assert pick_tile_planes(10_000_000, 64.0, n_planes=8) == 1

    def test_ceiling_cells_caps_the_tile(self):
        assert pick_tile_planes(100, 8.0, n_planes=64, ceiling_cells=250) == 2

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_TILE_CELLS, "300")
        assert tile_cells_from_env() == 300
        assert pick_tile_planes(100, 8.0, n_planes=64) == 3

    def test_env_junk_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_TILE_CELLS, "lots")
        with pytest.raises(ValueError, match="REPRO_TILE_CELLS"):
            tile_cells_from_env()


class TestKSlabs:
    def test_covers_range_contiguously(self):
        slabs = list(k_slabs(0, 17, 5))
        assert slabs == [(0, 5), (5, 10), (10, 15), (15, 17)]

    def test_offset_range(self):
        slabs = list(k_slabs(3, 9, 4))
        assert slabs == [(3, 7), (7, 9)]

    def test_empty_range(self):
        assert list(k_slabs(4, 4, 8)) == []


class TestShardSpans:
    @pytest.mark.parametrize("nz,n", [(16, 4), (17, 4), (3, 8), (1, 1), (255, 7)])
    def test_partition(self, nz, n):
        spans = shard_spans(nz, n)
        assert len(spans) == n
        covered = [k for lo, hi in spans for k in range(lo, hi)]
        assert covered == list(range(nz))  # contiguous, ascending, exact

    def test_near_even(self):
        spans = shard_spans(17, 4)
        widths = [hi - lo for lo, hi in spans]
        assert max(widths) - min(widths) <= 1


class TestSlabReductions:
    """The slab helpers match full-lattice rows bitwise — the identities
    the tiled kernels rely on for ledger/geometry equivalence."""

    @pytest.fixture(scope="class")
    def lattice(self, rng):
        return rng.standard_normal((9, 7, 6))

    @pytest.mark.parametrize("ufunc", [np.minimum, np.maximum, np.add])
    def test_slab_corner_reduce_matches_full(self, lattice, ufunc):
        full = cell_corner_reduce((5, 6, 8), lattice.reshape(-1), ufunc)
        parts = [
            slab_corner_reduce(lattice[k0 : k1 + 1], ufunc)
            for k0, k1 in k_slabs(0, 8, 3)
        ]
        np.testing.assert_array_equal(np.concatenate(parts), full)

    def test_recenter_slab_matches_full(self, lattice):
        full = _ref_recenter_to_cells(lattice)
        parts = [
            recenter_slab_to_cells(lattice[k0 : k1 + 1])
            for k0, k1 in k_slabs(0, 8, 3)
        ]
        np.testing.assert_array_equal(np.concatenate(parts), full)


def _ref_recenter_to_cells(lat):
    """The full-lattice 8-corner mean: the oracle for the tiled recenter."""
    acc = (
        lat[:-1, :-1, :-1]
        + lat[:-1, :-1, 1:]
        + lat[:-1, 1:, :-1]
        + lat[:-1, 1:, 1:]
        + lat[1:, :-1, :-1]
        + lat[1:, :-1, 1:]
        + lat[1:, 1:, :-1]
        + lat[1:, 1:, 1:]
    ) / 8.0
    return acc.reshape((-1,) + lat.shape[3:])


#: Cubes and a non-cube grid, so an x/y/z swap cannot pass.
RECENTER_GRIDS = [
    UniformGrid.cube(1),
    UniformGrid.cube(8),
    UniformGrid.cube(17),
    UniformGrid(cell_dims=(5, 7, 9), origin=(-0.3, 1.25, 2.0), spacing=(0.1, 0.37, 0.05)),
]


@pytest.mark.parametrize("tile_cells", [None, "1", "100"])
@pytest.mark.parametrize("components", [None, 3], ids=["scalar", "vector"])
@pytest.mark.parametrize("grid", RECENTER_GRIDS, ids=lambda g: "x".join(map(str, g.cell_dims)))
def test_recenter_to_cells_matches_full_lattice_formula(grid, components, tile_cells, monkeypatch, rng):
    """One tile, one-plane tiles and ragged tiles all give the full
    formula's bytes (signed zeros included)."""
    if tile_cells is None:
        monkeypatch.delenv(ENV_TILE_CELLS, raising=False)
    else:
        monkeypatch.setenv(ENV_TILE_CELLS, tile_cells)
    px, py, pz = grid.point_dims
    shape = (pz, py, px) + (() if components is None else (components,))
    lat = rng.standard_normal(shape)
    lat.reshape(-1)[::5] = -0.0
    got = recenter_to_cells(grid, lat.reshape((grid.n_points,) + shape[3:]))
    ref = _ref_recenter_to_cells(lat)
    assert got.shape == ((grid.n_cells,) + shape[3:])
    assert got.tobytes() == ref.tobytes()
