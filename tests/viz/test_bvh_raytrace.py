"""BVH construction/traversal and the ray tracer."""

import numpy as np
import pytest

from repro.data import Association, DataSet, UniformGrid
from repro.data.generators import gaussian_blobs, make_dataset
from repro.viz import Bvh, RayTracer, TraversalStats, external_surface, raytrace
from repro.viz.bvh import morton_codes
from repro.viz.render import orbit_cameras


def brute_force_trace(points, tris, origins, dirs):
    """Reference nearest-hit via Möller–Trumbore over every triangle."""
    n_rays = origins.shape[0]
    t_best = np.full(n_rays, np.inf)
    hit = np.full(n_rays, -1, dtype=np.int64)
    for ti, tri in enumerate(tris):
        p0 = points[tri[0]]
        e1 = points[tri[1]] - p0
        e2 = points[tri[2]] - p0
        pvec = np.cross(dirs, e2)
        det = pvec @ e1
        ok = np.abs(det) > 1e-12
        inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
        tvec = origins - p0
        u = np.einsum("ij,ij->i", tvec, pvec) * inv
        qvec = np.cross(tvec, np.broadcast_to(e1, tvec.shape))
        v = np.einsum("ij,ij->i", dirs, qvec) * inv
        t = qvec @ e2 * inv
        h = ok & (u >= 0) & (v >= 0) & (u + v <= 1) & (t > 1e-9) & (t < t_best)
        t_best[h] = t[h]
        hit[h] = ti
    return t_best, hit


#: A non-cube grid with an offset origin and unequal spacing.
OFFSET_GRID = UniformGrid(cell_dims=(5, 7, 9), origin=(-0.3, 1.25, 2.0), spacing=(0.1, 0.37, 0.05))


def _dense_ids(grid, points):
    """Lattice point ids of world-space lattice points."""
    ijk = np.rint((points - np.asarray(grid.origin)) / np.asarray(grid.spacing)).astype(np.int64)
    return grid.point_index(ijk[:, 0], ijk[:, 1], ijk[:, 2])


@pytest.fixture(scope="module")
def surface12():
    grid = UniformGrid.cube(12)
    cells = gaussian_blobs(grid, seed=1)[: grid.n_cells]  # any values
    ds = DataSet(grid)
    ds.add_field("energy", gaussian_blobs(grid, seed=1), Association.POINT)
    cell_scal = ds.cell_field("energy").values
    return external_surface(grid, cell_scal), grid


class TestMorton:
    def test_codes_monotone_along_diagonal(self):
        pts = np.linspace([0, 0, 0], [1, 1, 1], 16)
        codes = morton_codes(pts, np.zeros(3), np.ones(3))
        assert (np.diff(codes.astype(np.int64)) >= 0).all()

    def test_spatial_locality(self):
        """Close points get closer codes than far points, on average."""
        rng = np.random.default_rng(0)
        base = rng.random((64, 3)) * 0.9
        near = base + 0.01
        far = (base + 0.5) % 1.0
        lo, hi = np.zeros(3), np.ones(3)
        c0 = morton_codes(base, lo, hi).astype(np.int64)
        cn = morton_codes(near, lo, hi).astype(np.int64)
        cf = morton_codes(far, lo, hi).astype(np.int64)
        assert np.median(np.abs(cn - c0)) < np.median(np.abs(cf - c0))


class TestExternalSurface:
    def test_face_count_scales_n_squared(self):
        for n in (4, 8):
            grid = UniformGrid.cube(n)
            _, tris, _ = external_surface(grid, np.zeros(grid.n_cells))
            assert tris.shape[0] == 6 * n * n * 2

    def test_closed_surface_area(self):
        grid = UniformGrid.cube(6)
        pts, tris, _ = external_surface(grid, np.zeros(grid.n_cells))
        e1 = pts[tris[:, 1]] - pts[tris[:, 0]]
        e2 = pts[tris[:, 2]] - pts[tris[:, 0]]
        area = 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1).sum()
        assert area == pytest.approx(6.0)

    @pytest.mark.parametrize("grid", [OFFSET_GRID, UniformGrid.cube(1)], ids=["5x7x9", "1x1x1"])
    def test_points_are_the_boundary_points(self, grid):
        """Only the boundary points are built, in point-id order, with
        the dense coordinate array's values."""
        pts, tris, _ = external_surface(grid, np.zeros(grid.n_cells))
        px, py, pz = grid.point_dims
        n_interior = max(px - 2, 0) * max(py - 2, 0) * max(pz - 2, 0)
        assert pts.shape == (grid.n_points - n_interior, 3)
        np.testing.assert_array_equal(np.unique(tris), np.arange(pts.shape[0]))
        dense = _dense_ids(grid, pts)
        assert (np.diff(dense) > 0).all()
        assert grid.point_coords()[dense].tobytes() == pts.tobytes()

    def test_scalars_come_from_boundary_cells(self):
        grid = UniformGrid.cube(4)
        cells = np.arange(grid.n_cells, dtype=float)
        _, tris, scal = external_surface(grid, cells)
        assert scal.shape[0] == tris.shape[0]
        assert set(np.unique(scal)).issubset(set(cells))


class TestBvh:
    def test_matches_brute_force(self, surface12):
        (pts, tris, _), grid = surface12
        bvh = Bvh(pts, tris)
        cam = orbit_cameras(grid.bounds, 1)[0]
        o, d = cam.rays(12, 12)
        t_bvh, hit_bvh = bvh.trace(o, d)
        t_ref, _ = brute_force_trace(pts, tris, o, d)
        np.testing.assert_allclose(t_bvh, t_ref, rtol=1e-9)

    def test_visits_far_below_brute_force(self, surface12):
        (pts, tris, _), grid = surface12
        bvh = Bvh(pts, tris)
        cam = orbit_cameras(grid.bounds, 1)[0]
        o, d = cam.rays(16, 16)
        stats = TraversalStats()
        bvh.trace(o, d, stats)
        assert stats.tri_tests < 0.05 * tris.shape[0] * o.shape[0]
        assert stats.node_visits / o.shape[0] < 100

    def test_miss_rays_return_inf(self, surface12):
        (pts, tris, _), grid = surface12
        bvh = Bvh(pts, tris)
        o = np.array([[5.0, 5.0, 5.0]])
        d = np.array([[1.0, 0.0, 0.0]])  # pointing away
        t, hit = bvh.trace(o, d)
        assert np.isinf(t[0]) and hit[0] == -1

    def test_source_rows_is_permutation(self, surface12):
        (pts, tris, _), _ = surface12
        bvh = Bvh(pts, tris)
        assert sorted(bvh.source_rows.tolist()) == list(range(tris.shape[0]))
        np.testing.assert_array_equal(bvh.tris, tris[bvh.source_rows])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Bvh(np.zeros((3, 3)), np.empty((0, 3), dtype=np.int64))

    def test_leaf_size_variants_agree(self, surface12):
        (pts, tris, _), grid = surface12
        cam = orbit_cameras(grid.bounds, 1)[0]
        o, d = cam.rays(8, 8)
        t4, _ = Bvh(pts, tris, leaf_size=4).trace(o, d)
        t16, _ = Bvh(pts, tris, leaf_size=16).trace(o, d)
        np.testing.assert_allclose(t4, t16, rtol=1e-9)


class TestRayTracer:
    def test_images_and_counts(self, blobs_ds):
        rt = RayTracer(n_images=2, images_per_cycle=10, resolution=(32, 32))
        res = rt.execute(blobs_ds)
        assert len(res.output) == 2
        assert res.output[0].rgb.shape == (32, 32, 3)
        assert res.counts["rays"] == 2 * 32 * 32
        assert res.counts["surface_triangles"] == 6 * 16 * 16 * 2

    @pytest.mark.parametrize("kind", ["offset5x7x9", "blobs32"])
    def test_matches_dense_vertex_render(self, kind, monkeypatch):
        """Images and ledger equal a render over the dense vertex array,
        the compact triangles mapped back to dense point ids."""
        if kind == "blobs32":
            ds = make_dataset(32, kind="blobs", seed=7, with_velocity=False)
        else:
            ds = DataSet(OFFSET_GRID)
            ds.add_field("energy", gaussian_blobs(OFFSET_GRID, seed=3), Association.POINT)
        rt = RayTracer(n_images=2, images_per_cycle=10, resolution=(40, 32))
        got = rt.execute(ds)

        def dense_surface(grid, cell_scalars):
            pts, tris, scal = external_surface(grid, cell_scalars)
            return grid.point_coords(), _dense_ids(grid, pts)[tris], scal

        monkeypatch.setattr(raytrace, "external_surface", dense_surface)
        ref = rt.execute(ds)
        assert got.counts.as_dict() == ref.counts.as_dict()
        for a, b in zip(got.output, ref.output):
            assert a.rgb.tobytes() == b.rgb.tobytes()

    def test_center_pixel_hits(self, blobs_ds):
        rt = RayTracer(n_images=1, images_per_cycle=1, resolution=(33, 33))
        img = rt.execute(blobs_ds).output[0]
        center = img.rgb[16, 16]
        background = np.array([0.08, 0.08, 0.10])
        assert not np.allclose(center, background)

    def test_profile_scaling(self, blobs_ds):
        r1 = RayTracer(n_images=1, images_per_cycle=1, resolution=(16, 16)).execute(blobs_ds)
        r50 = RayTracer(n_images=1, images_per_cycle=50, resolution=(16, 16)).execute(blobs_ds)
        t1 = next(s for s in r1.profile if s.name == "trace")
        t50 = next(s for s in r50.profile if s.name == "trace")
        assert t50.mix.total == pytest.approx(50 * t1.mix.total, rel=1e-9)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            RayTracer(n_images=0)
        with pytest.raises(ValueError):
            RayTracer(n_images=5, images_per_cycle=2)
