"""Threshold and three-slice filters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Association, DataSet, UniformGrid
from repro.data.generators import gaussian_blobs, linear_ramp
from repro.viz import Contour, OpCounts, Slice, Threshold, slicer


class TestThreshold:
    def test_kept_cells_satisfy_predicate(self, blobs_ds):
        cells = blobs_ds.cell_field("energy").values
        lo, hi = float(np.median(cells)), float(cells.max())
        out = Threshold(field="energy", lo=lo, hi=hi).execute(blobs_ds).output
        assert ((cells[out.cell_ids] >= lo) & (cells[out.cell_ids] <= hi)).all()

    def test_complement_partitions_cells(self, blobs_ds):
        cells = blobs_ds.cell_field("energy").values
        mid = float(np.median(cells))
        a = Threshold(field="energy", lo=mid, hi=np.inf).execute(blobs_ds).output
        b = Threshold(field="energy", lo=-np.inf, hi=np.nextafter(mid, -np.inf)).execute(
            blobs_ds
        ).output
        assert a.n_cells + b.n_cells == blobs_ds.grid.n_cells
        assert len(set(a.cell_ids) & set(b.cell_ids)) == 0

    def test_output_scalars_match(self, blobs_ds):
        cells = blobs_ds.cell_field("energy").values
        out = Threshold(field="energy", lo=0.1, hi=10).execute(blobs_ds).output
        np.testing.assert_array_equal(out.cell_scalars, cells[out.cell_ids])

    def test_default_range_upper_half(self, blobs_ds):
        res = Threshold(field="energy").execute(blobs_ds)
        cells = blobs_ds.cell_field("energy").values
        mid = 0.5 * (cells.min() + cells.max())
        assert (cells[res.output.cell_ids] >= mid).all()

    def test_counts(self, blobs_ds):
        res = Threshold(field="energy", lo=-np.inf, hi=np.inf).execute(blobs_ds)
        assert res.counts["cells_scanned"] == blobs_ds.grid.n_cells
        assert res.counts["cells_kept"] == blobs_ds.grid.n_cells

    @given(frac=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=20, deadline=None)
    def test_property_kept_count_matches_ramp_fraction(self, frac):
        """On a linear ramp, keeping values >= q keeps ~ (1-q) of cells."""
        grid = UniformGrid.cube(10)
        ds = DataSet(grid)
        ds.add_field("r", linear_ramp(grid), Association.POINT)
        out = Threshold(field="r", lo=frac, hi=2.0).execute(ds).output
        expected = (1.0 - frac) * grid.n_cells
        assert abs(out.n_cells - expected) <= grid.cell_dims[0] ** 2 + 1


_REF_NORMALS = {"xy": (0.0, 0.0, 1.0), "yz": (1.0, 0.0, 0.0), "xz": (0.0, 1.0, 0.0)}


def _reference_slice(ds, planes):
    """Per-plane distances and the slice ledger from the dense reference
    distance ``(points - center) @ normal``."""
    grid = ds.grid
    pts = grid.point_coords()
    dists, counts = [], OpCounts()
    for plane in planes:
        dist = (pts - grid.center) @ np.array(_REF_NORMALS[plane])
        dists.append(dist)
        sub = DataSet(grid)
        sub.add_field("d", dist, Association.POINT)
        inner = Contour(field="d", isovalues=[0.0], keep_output=False).execute(sub).counts
        counts.add("points_evaluated", grid.n_points)
        for key in ("cells_classified", "active_cells", "triangles"):
            counts.add(key, inner[key])
    return dists, counts.as_dict()


#: An odd non-cube grid (center planes between lattice points) and an
#: even cube whose center planes lie on lattice points (distance exactly
#: 0, where a sign slip would give -0.0).
SLICE_GRIDS = [
    UniformGrid(cell_dims=(5, 7, 9), origin=(-0.3, 1.25, 2.0), spacing=(0.1, 0.37, 0.05)),
    UniformGrid.cube(8),
]


class TestSlice:
    @pytest.mark.parametrize("grid", SLICE_GRIDS, ids=lambda g: "x".join(map(str, g.cell_dims)))
    def test_distance_and_ledger_match_dense_reference(self, grid, monkeypatch):
        ds = DataSet(grid)
        ds.add_field("energy", gaussian_blobs(grid), Association.POINT)
        seen = []

        class SpyContour(Contour):
            def _apply(self, dataset, counts):
                seen.append(dataset.field(self.field).values.copy())
                return super()._apply(dataset, counts)

        monkeypatch.setattr(slicer, "Contour", SpyContour)
        planes = ("xy", "yz", "xz")
        ledger = Slice(planes=planes, keep_output=False).execute(ds).counts.as_dict()
        ref_dists, ref_ledger = _reference_slice(ds, planes)
        assert ledger == ref_ledger
        assert len(seen) == len(planes)
        for got, want in zip(seen, ref_dists):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        on_lattice = all((d == 0.0).any() for d in ref_dists)
        assert on_lattice == (grid.cell_dims == (8, 8, 8))

    def test_three_planes_through_center(self, blobs_ds):
        mesh = Slice(field="energy").execute(blobs_ds).output
        center = blobs_ds.grid.center
        # Every vertex lies on one of the three center planes.
        d = np.abs(mesh.points - center)
        on_plane = (d < 1e-9).any(axis=1)
        assert on_plane.all()

    def test_single_plane_area(self, blobs_ds):
        mesh = Slice(field="energy", planes=("xy",)).execute(blobs_ds).output
        assert mesh.area() == pytest.approx(1.0, rel=1e-6)

    def test_three_plane_area(self, blobs_ds):
        mesh = Slice(field="energy").execute(blobs_ds).output
        assert mesh.area() == pytest.approx(3.0, rel=1e-6)

    def test_unknown_plane_rejected(self):
        with pytest.raises(ValueError, match="unknown plane"):
            Slice(planes=("xy", "zz"))

    def test_counts_scale_with_planes(self, blobs_ds):
        r1 = Slice(field="energy", planes=("xy",)).execute(blobs_ds)
        r3 = Slice(field="energy").execute(blobs_ds)
        assert r3.counts["points_evaluated"] == 3 * r1.counts["points_evaluated"]

    def test_profile_segments(self, blobs_ds):
        prof = Slice(field="energy").execute(blobs_ds).profile
        assert [s.name for s in prof] == ["framework", "distance", "classify", "generate"]
