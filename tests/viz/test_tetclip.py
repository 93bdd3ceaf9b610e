"""Tetrahedral clipping engine: exact volume partitions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Association, DataSet, TetMesh, UniformGrid
from repro.data.generators import linear_ramp
from repro.viz import Isovolume, SphericalClip
from repro.viz.tetclip import clip_tet_soup, tet_cut_recipes


class TestRecipes:
    def test_all_16_cases_present(self):
        recipes = tet_cut_recipes()
        assert set(recipes) == set(range(16))

    def test_case_counts(self):
        recipes = tet_cut_recipes()
        assert len(recipes[0]) == 0          # all outside
        assert len(recipes[0b1111]) == 1     # all inside: passthrough
        for case in (1, 2, 4, 8):
            assert len(recipes[case]) == 1   # single corner kept
        for case in (0b1110, 0b1101, 0b1011, 0b0111):
            assert len(recipes[case]) == 3   # frustum
        for case in (0b0011, 0b0101, 0b1001, 0b0110, 0b1010, 0b1100):
            assert len(recipes[case]) == 3   # prism

    def test_edges_cross_boundary(self):
        recipes = tet_cut_recipes()
        for case, tets in recipes.items():
            inside = {i for i in range(4) if (case >> i) & 1}
            for tet in tets:
                for rv in tet:
                    if rv[0] == "e":
                        _, a, b = rv
                        assert (a in inside) != (b in inside)

    @given(case=st.integers(min_value=1, max_value=15))
    @settings(max_examples=15, deadline=None)
    def test_volume_partition_per_tet(self, case):
        """Cut volume of the kept side + complement's kept side = tet volume."""
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        g = np.array([1.0 if (case >> i) & 1 else -1.0 for i in range(4)])
        soup = TetMesh(pts, np.array([[0, 1, 2, 3]]), scalars=g)
        kept, _ = clip_tet_soup(soup, g)
        comp, _ = clip_tet_soup(soup, -g)
        total = kept.total_volume() + comp.total_volume()
        assert total == pytest.approx(1.0 / 6.0, rel=1e-9)


def _dataset(grid: UniformGrid, values: np.ndarray) -> DataSet:
    ds = DataSet(grid)
    ds.add_field("energy", values, Association.POINT)
    return ds


def _kept_volume(out, grid: UniformGrid) -> float:
    return out.total_volume(cell_volume=float(np.prod(grid.spacing)))


class TestGridClip:
    """The grid clip loop, through the two filters that run it: a
    one-sided :class:`Isovolume` (``hi`` above the field) keeps exactly
    ``g = s - lo >= 0``; :class:`SphericalClip` carries a scalar that is
    not its clip function."""

    def test_halfspace_keeps_half(self, grid8):
        out = Isovolume(lo=0.5, hi=2.0).execute(_dataset(grid8, linear_ramp(grid8))).output
        assert _kept_volume(out, grid8) == pytest.approx(0.5, rel=1e-9)

    def test_all_inside(self, grid8):
        res = SphericalClip(center=(5.0, 5.0, 5.0), radius=0.1).execute(
            _dataset(grid8, linear_ramp(grid8))
        )
        assert res.output.kept.n_cells == grid8.n_cells
        assert res.output.cut.n_tets == 0
        assert res.counts["cells_straddling"] == 0

    def test_all_outside(self, grid8):
        out = Isovolume(lo=2.0, hi=3.0).execute(_dataset(grid8, linear_ramp(grid8))).output
        assert out.kept.n_cells == 0
        assert out.cut.n_tets == 0

    def test_oblique_halfspace(self, grid8):
        """Plane not aligned with the lattice still partitions exactly."""
        pts = grid8.point_coords()
        g = (pts @ np.array([1.0, 1.0, 0.0])) / np.sqrt(2) - np.sqrt(2) / 2
        out = Isovolume(lo=0.0, hi=2.0).execute(_dataset(grid8, g)).output
        assert _kept_volume(out, grid8) == pytest.approx(0.5, rel=1e-9)

    def test_scalars_interpolated_on_cut(self, grid8):
        """Cut-tet vertex scalars must equal the carried field's value."""
        ds = _dataset(grid8, linear_ramp(grid8) * 2.0)  # carried field = 2x
        out = SphericalClip(radius=0.3).execute(ds).output
        assert out.cut.n_tets > 0
        np.testing.assert_allclose(out.cut.scalars, out.cut.points[:, 0] * 2.0, atol=1e-9)

    def test_chunking_invariant(self, grid8):
        ds = _dataset(grid8, linear_ramp(grid8))
        for make in (
            lambda chunk: SphericalClip(radius=0.37, chunk_cells=chunk),
            lambda chunk: Isovolume(lo=0.37, hi=0.8, chunk_cells=chunk),
        ):
            r1 = make(1 << 20).execute(ds)
            r2 = make(13).execute(ds)
            assert np.array_equal(r1.output.kept.cell_ids, r2.output.kept.cell_ids)
            assert r1.output.cut.total_volume() == pytest.approx(
                r2.output.cut.total_volume(), rel=1e-12
            )
            assert r1.counts == r2.counts

    def test_keep_output_false(self, grid8):
        res = SphericalClip(radius=0.3, keep_output=False).execute(
            _dataset(grid8, linear_ramp(grid8))
        )
        assert res.output.cut.n_tets == 0
        assert res.counts["tets_emitted"] > 0


class TestTetSoupClip:
    def test_empty_mesh(self):
        out, n = clip_tet_soup(TetMesh.empty(), np.empty(0))
        assert out.n_tets == 0 and n == 0

    def test_wrong_g_length(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        soup = TetMesh(pts, np.array([[0, 1, 2, 3]]))
        with pytest.raises(ValueError):
            clip_tet_soup(soup, np.zeros(3))

    @given(
        n=st.floats(min_value=-0.8, max_value=0.8),
        axis=st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_plane_clip_volume(self, n, axis):
        """Clipping a unit cube's tets by an axis plane keeps the exact
        fraction of the volume on the kept side."""
        grid = UniformGrid.cube(4)
        offset = 0.5 + n / 2.0
        ds = _dataset(grid, grid.point_coords()[:, axis].copy())
        out = Isovolume(lo=offset, hi=2.0).execute(ds).output
        assert _kept_volume(out, grid) == pytest.approx(1.0 - offset, abs=1e-9)
