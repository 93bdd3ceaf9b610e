"""Analytic field generators."""

import numpy as np
import pytest

from repro.data import Association, UniformGrid
from repro.data.generators import (
    abc_flow,
    gaussian_blobs,
    linear_ramp,
    make_dataset,
    rotation_vector_field,
    sphere_distance,
    tangle_field,
)


class TestScalars:
    def test_sphere_distance_center_zero(self, grid8):
        d = sphere_distance(grid8)
        center_pid = grid8.point_index(4, 4, 4)
        assert d[center_pid] == pytest.approx(0.0)
        assert d.min() >= 0.0

    def test_sphere_distance_custom_center(self, grid8):
        d = sphere_distance(grid8, center=np.zeros(3))
        assert d[0] == pytest.approx(0.0)
        assert d.max() == pytest.approx(grid8.diagonal)

    def test_linear_ramp_is_linear(self, grid8):
        r = linear_ramp(grid8, direction=(2.0, 0.0, 0.0))
        pts = grid8.point_coords()
        np.testing.assert_allclose(r, pts[:, 0])

    def test_linear_ramp_rejects_zero_direction(self, grid8):
        with pytest.raises(ValueError):
            linear_ramp(grid8, direction=(0, 0, 0))

    def test_blobs_deterministic(self, grid8):
        np.testing.assert_array_equal(
            gaussian_blobs(grid8, seed=3), gaussian_blobs(grid8, seed=3)
        )
        assert not np.array_equal(gaussian_blobs(grid8, seed=3), gaussian_blobs(grid8, seed=4))

    def test_blobs_positive(self, grid8):
        assert gaussian_blobs(grid8).min() > 0.0

    def test_tangle_has_both_signs_around_default_iso(self, grid16):
        t = tangle_field(grid16)
        assert t.min() < 0.5 < t.max()


class TestVectors:
    def test_rotation_is_divergence_free_in_plane(self, grid8):
        v = rotation_vector_field(grid8)
        assert v.shape == (grid8.n_points, 3)
        np.testing.assert_allclose(v[:, 2], 0.0)

    def test_rotation_orthogonal_to_radius(self, grid8):
        v = rotation_vector_field(grid8)
        r = grid8.point_coords() - grid8.center
        dots = np.einsum("ij,ij->i", v[:, :2], r[:, :2])
        np.testing.assert_allclose(dots, 0.0, atol=1e-12)

    def test_abc_flow_shape_and_magnitude(self, grid8):
        v = abc_flow(grid8)
        assert v.shape == (grid8.n_points, 3)
        mags = np.linalg.norm(v, axis=1)
        assert mags.max() < 3.0  # |A|+|B|+|C| bound


class TestMakeDataset:
    @pytest.mark.parametrize("kind", ["blobs", "sphere", "ramp", "tangle"])
    def test_kinds(self, kind):
        ds = make_dataset(8, kind=kind)
        assert "energy" in ds.fields
        assert ds.field("energy").association is Association.POINT
        assert "velocity" in ds.fields

    def test_no_velocity(self):
        ds = make_dataset(8, with_velocity=False)
        assert "velocity" not in ds.fields

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown dataset kind"):
            make_dataset(8, kind="nope")

    def test_velocity_mostly_recirculating(self):
        """The blended field should keep most advected particles inside
        (the property the advection workload depends on)."""
        ds = make_dataset(12)
        v = ds.field("velocity").values
        # Rotational component dominates: mean in-plane speed exceeds
        # mean z-speed.
        inplane = np.linalg.norm(v[:, :2], axis=1).mean()
        vertical = np.abs(v[:, 2]).mean()
        assert inplane > vertical


# ------------------------------------------------------------ bitwise oracle
# The generators build their fields from broadcast 1-D axis terms.  These
# references are the dense formulas over the (n, 3) point-coordinate
# array; every field must match them bit for bit, because the golden
# ledgers (advection reads velocity, every other kernel reads energy)
# depend on the exact values.


def _ref_gaussian_blobs(grid, *, n_blobs=4, width=0.15, seed=7):
    rng = np.random.default_rng(seed)
    b = grid.bounds
    centers = b[:, 0] + rng.random((n_blobs, 3)) * (b[:, 1] - b[:, 0])
    sigma = width * grid.diagonal
    pts = grid.point_coords()
    out = np.zeros(grid.n_points)
    for c in centers:
        d2 = np.sum((pts - c) ** 2, axis=1)
        out += np.exp(-d2 / (2.0 * sigma**2))
    return out


def _ref_rotation(grid, *, axis=2):
    pts = grid.point_coords() - grid.center
    v = np.zeros_like(pts)
    a, bax = {0: (1, 2), 1: (2, 0), 2: (0, 1)}[axis]
    v[:, a] = -pts[:, bax]
    v[:, bax] = pts[:, a]
    return v


def _ref_abc(grid, *, a=1.0, b=np.sqrt(2.0 / 3.0), c=np.sqrt(1.0 / 3.0)):
    bounds = grid.bounds
    p = (grid.point_coords() - bounds[:, 0]) / (bounds[:, 1] - bounds[:, 0]) * (2.0 * np.pi)
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    return np.stack(
        [
            a * np.sin(z) + c * np.cos(y),
            b * np.sin(x) + a * np.cos(z),
            c * np.sin(y) + b * np.cos(x),
        ],
        axis=1,
    )


def _ref_velocity(grid):
    rot = _ref_rotation(grid)
    return rot / (np.abs(rot).max() or 1.0) + 0.35 * _ref_abc(grid)


def _bits(a):
    """The raw bit patterns: unlike array_equal, tells +0.0 from -0.0."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


#: Cubes, plus a non-cube grid with a non-zero origin and unequal
#: spacing: the golden cube ledgers cannot catch an x/y/z axis swap.
ORACLE_GRIDS = [
    UniformGrid.cube(8),
    UniformGrid.cube(17),
    UniformGrid.cube(32),
    UniformGrid(cell_dims=(5, 7, 9), origin=(-0.3, 1.25, 2.0), spacing=(0.1, 0.37, 0.05)),
]


@pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=lambda g: "x".join(map(str, g.cell_dims)))
class TestBitwiseOracle:
    def test_axis_coords_reproduce_point_coords(self, grid):
        x, y, z = grid.axis_coords()
        assert [len(x), len(y), len(z)] == list(grid.point_dims)
        dense = grid.point_coords()
        by_id = grid.point_coords(np.arange(grid.n_points))
        assert np.array_equal(_bits(dense), _bits(by_id))
        zz, yy, xx = np.meshgrid(z, y, x, indexing="ij")
        assert np.array_equal(_bits(dense[:, 0]), _bits(xx.reshape(-1)))
        assert np.array_equal(_bits(dense[:, 1]), _bits(yy.reshape(-1)))
        assert np.array_equal(_bits(dense[:, 2]), _bits(zz.reshape(-1)))

    @pytest.mark.parametrize("seed", [3, 7])
    def test_gaussian_blobs(self, grid, seed):
        got = gaussian_blobs(grid, seed=seed)
        assert np.array_equal(_bits(got), _bits(_ref_gaussian_blobs(grid, seed=seed)))

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_rotation_vector_field(self, grid, axis):
        got = rotation_vector_field(grid, axis=axis)
        assert got.shape == (grid.n_points, 3)
        assert np.array_equal(_bits(got), _bits(_ref_rotation(grid, axis=axis)))

    def test_abc_flow(self, grid):
        got = abc_flow(grid)
        assert got.shape == (grid.n_points, 3)
        assert np.array_equal(_bits(got), _bits(_ref_abc(grid)))


@pytest.mark.parametrize("n", [8, 17, 32])
def test_make_dataset_fields_match_dense_reference(n):
    ds = make_dataset(n)
    grid = ds.grid
    assert np.array_equal(_bits(ds.field("energy").values), _bits(_ref_gaussian_blobs(grid)))
    assert np.array_equal(_bits(ds.field("velocity").values), _bits(_ref_velocity(grid)))
