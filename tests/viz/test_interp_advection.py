"""Trilinear interpolation and RK4 particle advection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Association, DataSet, UniformGrid
from repro.data.generators import (
    abc_flow,
    gaussian_blobs,
    linear_ramp,
    make_dataset,
    rotation_vector_field,
)
from repro.viz import ParticleAdvection, VolumeRenderer, advection, trilinear, volume
from repro.viz.advection import _unit, seed_grid


class TestTrilinear:
    def test_reproduces_linear_field_exactly(self, grid16, rng):
        vals = linear_ramp(grid16, direction=(1.0, 2.0, 3.0))
        q = rng.random((50, 3))
        out, inside = trilinear(grid16, vals, q)
        d = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
        np.testing.assert_allclose(out, q @ d, atol=1e-12)
        assert inside.all()

    def test_exact_at_grid_points(self, grid16, rng):
        vals = rng.random(grid16.n_points)
        pids = rng.integers(0, grid16.n_points, size=20)
        q = grid16.point_coords(pids)
        out, _ = trilinear(grid16, vals, q)
        np.testing.assert_allclose(out, vals[pids], atol=1e-12)

    def test_out_of_bounds_zero_and_flagged(self, grid16):
        vals = np.ones(grid16.n_points)
        out, inside = trilinear(grid16, vals, np.array([[2.0, 0.5, 0.5]]))
        assert not inside[0]
        assert out[0] == 0.0

    def test_vector_field(self, grid16):
        vel = np.tile([1.0, -2.0, 0.5], (grid16.n_points, 1))
        out, _ = trilinear(grid16, vel, np.array([[0.3, 0.7, 0.2]]))
        np.testing.assert_allclose(out[0], [1.0, -2.0, 0.5])

    def test_boundary_point_uses_clamped_cell(self, grid16):
        vals = linear_ramp(grid16)
        out, inside = trilinear(grid16, vals, np.array([[1.0, 1.0, 1.0]]))
        assert inside[0]
        assert out[0] == pytest.approx(1.0)

    def test_convex_combination_bounds(self, grid16, rng):
        vals = rng.random(grid16.n_points)
        q = rng.random((100, 3))
        out, _ = trilinear(grid16, vals, q)
        assert (out >= vals.min() - 1e-12).all()
        assert (out <= vals.max() + 1e-12).all()


class TestSeedGrid:
    def test_count_and_bounds(self, grid16):
        seeds = seed_grid(grid16.bounds, 64)
        assert seeds.shape == (64, 3)
        assert grid16.contains(seeds).all()

    def test_matches_per_axis_loop_bitwise(self, grid16):
        """The batched linspace reproduces the per-dimension loop exactly."""
        bounds = np.asarray(grid16.bounds, dtype=np.float64)
        per_axis = max(1, int(round(64 ** (1.0 / 3.0))))
        axes = []
        for lo, hi in bounds:
            pad = 0.15 * (hi - lo)
            axes.append(np.linspace(lo + pad, hi - pad, per_axis))
        gx, gy, gz = np.meshgrid(*axes, indexing="ij")
        expected = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
        np.testing.assert_array_equal(seed_grid(grid16.bounds, 64), expected)

    def test_margin(self, grid16):
        seeds = seed_grid(grid16.bounds, 27, margin=0.2)
        assert seeds.min() >= 0.2 - 1e-12
        assert seeds.max() <= 0.8 + 1e-12


class TestAdvection:
    def test_circular_streamlines_stay_on_circles(self, blobs_ds):
        """In a pure rotation field, each streamline keeps its radius."""
        adv = ParticleAdvection(n_seeds=27, n_steps=200)
        lines = adv.execute(blobs_ds).output
        center = blobs_ds.grid.center
        checked = 0
        for i in range(lines.n_lines):
            pts = lines.line(i)
            if pts.shape[0] < 50:
                continue  # died early near the boundary
            r = np.linalg.norm((pts - center)[:, :2], axis=1)
            if r[0] < 0.05:
                continue  # near the axis the direction is ill-conditioned
            np.testing.assert_allclose(r, r[0], rtol=0.08)
            checked += 1
        assert checked > 3

    def test_step_length_controls_displacement(self, blobs_ds):
        h = 0.01
        adv = ParticleAdvection(n_seeds=8, n_steps=20, step_length=h)
        lines = adv.execute(blobs_ds).output
        for i in range(lines.n_lines):
            pts = lines.line(i)
            if pts.shape[0] > 2:
                seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
                np.testing.assert_allclose(seg, h, rtol=1e-6)

    def test_all_points_inside_domain(self, blobs_ds):
        adv = ParticleAdvection(n_seeds=27, n_steps=100)
        lines = adv.execute(blobs_ds).output
        assert blobs_ds.grid.contains(lines.points).all()

    def test_line_count_matches_seeds(self, blobs_ds):
        adv = ParticleAdvection(n_seeds=27, n_steps=10)
        lines = adv.execute(blobs_ds).output
        assert lines.n_lines == 27  # 3^3 lattice

    def test_counts_bound_by_seeds_steps(self, abc_ds):
        adv = ParticleAdvection(n_seeds=27, n_steps=50)
        res = adv.execute(abc_ds)
        assert res.counts["steps"] <= 27 * 50
        assert res.counts["interp_evals"] == 4 * res.counts["steps"]

    def test_particles_exit_small_domain(self, abc_ds):
        """The paper's observation: with fixed world-space step lengths,
        particles fall out of the box and terminate."""
        adv = ParticleAdvection(n_seeds=27, n_steps=500, step_length=0.02)
        res = adv.execute(abc_ds)
        assert res.counts["steps"] < 27 * 500

    def test_bad_params(self):
        with pytest.raises(ValueError):
            ParticleAdvection(n_seeds=0)
        with pytest.raises(ValueError):
            ParticleAdvection(n_steps=0)

    def test_scalar_velocity_rejected(self, ramp_ds):
        with pytest.raises(ValueError, match="vector"):
            ParticleAdvection(field="energy").execute(ramp_ds)


# ------------------------------------------------------------ bitwise oracle
# `trilinear` and `_unit` make fewer array passes than they once did but
# keep the arithmetic and its order.  These references are the earlier
# implementations; every result must match them bit for bit, because the
# golden advection and volume ledgers depend on the exact values.


def _ref_trilinear(grid, values, positions):
    positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    lat = grid.world_to_lattice(positions)
    dims = np.asarray(grid.cell_dims, dtype=np.float64)
    inside = np.all((lat >= 0.0) & (lat <= dims), axis=1)
    cell = np.minimum(np.floor(lat), dims - 1.0)
    cell = np.maximum(cell, 0.0).astype(np.int64)
    frac = np.clip(lat - cell, 0.0, 1.0)
    px, py, _ = grid.point_dims
    i, j, k = cell[:, 0], cell[:, 1], cell[:, 2]
    base = i + px * (j + py * k)
    fx, fy, fz = frac[:, 0], frac[:, 1], frac[:, 2]
    wx = np.stack([1.0 - fx, fx], axis=1)
    wy = np.stack([1.0 - fy, fy], axis=1)
    wz = np.stack([1.0 - fz, fz], axis=1)
    vec = values.ndim == 2
    out = np.zeros((positions.shape[0], 3) if vec else (positions.shape[0],))
    for dz in (0, 1):
        for dy in (0, 1):
            for dx in (0, 1):
                pid = base + dx + px * (dy + py * dz)
                w = wx[:, dx] * wy[:, dy] * wz[:, dz]
                if vec:
                    out += w[:, None] * values[pid]
                else:
                    out += w * values[pid]
    out[~inside] = 0.0
    return out, inside


def _ref_unit(v):
    norm = np.linalg.norm(v, axis=1, keepdims=True)
    return np.divide(v, norm, out=np.zeros_like(v), where=norm > 1e-300)


def _offset_dataset():
    """A non-cube grid with an offset origin and unequal spacing: a cube
    cannot catch an x/y/z axis swap."""
    grid = UniformGrid(cell_dims=(5, 7, 9), origin=(-0.3, 1.25, 2.0), spacing=(0.1, 0.37, 0.05))
    ds = DataSet(grid)
    ds.add_field("energy", gaussian_blobs(grid), Association.POINT)
    ds.add_field("velocity", abc_flow(grid), Association.POINT)
    return ds


@pytest.fixture(scope="module", params=["blobs32", "offset5x7x9"])
def oracle_ds(request):
    ds = make_dataset(32, kind="blobs", seed=7) if request.param == "blobs32" else _offset_dataset()
    # Exact ±0.0 components: on the cube's center planes every corner
    # product can be -0.0, which only a zeroed accumulator turns into +0.0.
    ds.add_field("rotation", rotation_vector_field(ds.grid), Association.POINT)
    return ds


def _upper_face(grid, axis):
    """The upper-face coordinate of ``axis`` and its float64 neighbours,
    a few ulps to each side."""
    top = grid.axis_coords()[axis][-1]
    up = down = top
    cands = [top]
    for _ in range(8):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        cands += [up, down]
    return np.array(cands)


def _query_points(grid, n_random=20_000, seed=3):
    """Random points in and around the grid, plus points exactly on
    lattice planes (signed zeros included) and on the upper faces."""
    rng = np.random.default_rng(seed)
    lo, hi = grid.bounds[:, 0], grid.bounds[:, 1]
    span = hi - lo
    pts = [lo - 0.25 * span + rng.random((n_random, 3)) * (1.5 * span)]
    axes = grid.axis_coords()
    for axis in range(3):
        planes = lo + rng.random((600, 3)) * span
        planes[:200, axis] = rng.choice(axes[axis], 200)
        planes[200:400, axis] = rng.choice(_upper_face(grid, axis), 200)
        planes[400:, axis] = lo[axis]
        pts.append(planes)
    corners = np.array(np.meshgrid(*[(a[0], a[-1]) for a in axes], indexing="ij")).reshape(3, -1).T
    pts.append(corners)
    if not np.any(np.asarray(grid.origin)):
        signed = lo + rng.random((300, 3)) * span
        signed[:, rng.integers(0, 3)] = -0.0
        pts.append(signed)
    return np.concatenate(pts)


class TestBitwiseOracle:
    @pytest.mark.parametrize("field", ["energy", "velocity", "rotation"])
    def test_trilinear(self, oracle_ds, field):
        grid = oracle_ds.grid
        values = oracle_ds.point_field(field).values
        q = _query_points(grid)
        # Queries land exactly on the upper faces (lat == dims).  On the
        # offset grid no float64 z maps exactly onto its top face, so
        # there the neighbours on both sides stand in for it.
        on_top = (grid.world_to_lattice(q) == np.asarray(grid.cell_dims, dtype=np.float64)).any(axis=0)
        assert on_top[:2].all() and (on_top[2] or any(grid.origin))
        got, inside = trilinear(grid, values, q)
        ref, ref_inside = _ref_trilinear(grid, values, q)
        assert 0 < inside.sum() < len(q)
        assert inside.tobytes() == ref_inside.tobytes()
        assert got.tobytes() == ref.tobytes()

    def test_trilinear_single_point(self, oracle_ds):
        grid = oracle_ds.grid
        values = oracle_ds.point_field("velocity").values
        q = grid.center
        got, inside = trilinear(grid, values, q)
        ref, ref_inside = _ref_trilinear(grid, values, q)
        assert got.shape == (1, 3)
        assert got.tobytes() == ref.tobytes() and inside.tobytes() == ref_inside.tobytes()

    def test_unit(self, rng):
        v = rng.standard_normal((1000, 3)) * np.exp(rng.uniform(-700.0, 300.0, (1000, 1)))
        v[::7] = 0.0
        v[1::7] = -0.0
        v[2::7] = [0.0, -0.0, 0.0]
        v[3::7, 1] = -0.0
        v[4::7] = 1e-301
        assert _unit(v).tobytes() == _ref_unit(v).tobytes()

    def test_advection_polylines(self, oracle_ds, monkeypatch):
        adv = ParticleAdvection(n_seeds=512, n_steps=300)
        got = adv.execute(oracle_ds)
        monkeypatch.setattr(advection, "trilinear", _ref_trilinear)
        monkeypatch.setattr(advection, "_unit", _ref_unit)
        ref = adv.execute(oracle_ds)
        assert got.output.points.tobytes() == ref.output.points.tobytes()
        assert np.asarray(got.output.offsets).tobytes() == np.asarray(ref.output.offsets).tobytes()
        assert got.counts.as_dict() == ref.counts.as_dict()

    def test_volume_images(self, oracle_ds, monkeypatch):
        vr = VolumeRenderer(n_images=2, images_per_cycle=10, resolution=(48, 40))
        got = vr.execute(oracle_ds)
        monkeypatch.setattr(volume, "trilinear", _ref_trilinear)
        ref = vr.execute(oracle_ds)
        for a, b in zip(got.output, ref.output):
            assert a.rgb.tobytes() == b.rgb.tobytes()
        assert got.counts.as_dict() == ref.counts.as_dict()
