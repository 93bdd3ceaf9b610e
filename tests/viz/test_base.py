"""Filter infrastructure: op ledgers, profiles, the registry."""

from dataclasses import asdict

import numpy as np
import pytest

from repro.viz import ALGORITHMS, CELL_CENTERED, framework_segment
from repro.viz.base import OpCounts
from repro.viz.costs import COSTS
from repro.workload import AccessPattern


class TestOpCounts:
    def test_add_accumulates(self):
        oc = OpCounts()
        oc.add("x", 2)
        oc.add("x", 3.5)
        assert oc["x"] == 5.5

    def test_missing_is_zero(self):
        assert OpCounts()["nope"] == 0.0

    def test_contains(self):
        oc = OpCounts()
        oc.add("x", 1)
        assert "x" in oc and "y" not in oc


class TestFrameworkSegment:
    def test_scales_with_worklets(self):
        s1 = framework_segment(1)
        s3 = framework_segment(3)
        assert s3.mix.total == pytest.approx(3 * s1.mix.total)
        assert s3.extra_stall_cycles == pytest.approx(3 * s1.extra_stall_cycles)

    def test_low_parallel_efficiency(self):
        assert framework_segment(1).parallel_efficiency < 0.5


@pytest.fixture(scope="module")
def executed(blobs_ds):
    """``executed(name)``: one shared real execution per algorithm on
    the 16^3 blobs dataset (advection alone takes seconds)."""
    results = {}

    def run(name):
        if name not in results:
            results[name] = ALGORITHMS[name]().execute(blobs_ds)
        return results[name]

    return run


class TestRegistry:
    def test_eight_algorithms(self):
        assert len(ALGORITHMS) == 8
        assert set(CELL_CENTERED) <= set(ALGORITHMS)

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_every_algorithm_runs_and_profiles(self, name, blobs_ds, executed):
        res = executed(name)
        prof = res.profile
        assert prof.total_instructions > 0
        assert prof.n_elements == blobs_ds.grid.n_cells
        assert prof.segments[0].name == "framework"
        assert all(s.mix.total > 0 for s in prof)
        assert "counts" in prof.metadata

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_profiles_rebuildable_from_counts(self, name, blobs_ds, executed):
        """profile_from_counts reproduces execute()'s profile exactly:
        every field of every segment, raw and cycle-scaled — the ledger
        is all a sweep keeps of a real execution."""
        res = executed(name)
        rebuilt = ALGORITHMS[name]().profile_from_counts(blobs_ds, res.counts)
        assert [asdict(s) for s in rebuilt] == [asdict(s) for s in res.profile]
        assert [asdict(s.scaled(2)) for s in rebuilt] == [
            asdict(s.scaled(2)) for s in res.profile
        ]


class TestCostTable:
    def test_all_phases_have_positive_instructions(self):
        for key, cost in COSTS.items():
            assert cost.instr_per_op > 0, key

    def test_patterns_are_valid(self):
        for cost in COSTS.values():
            assert isinstance(cost.pattern, AccessPattern)

    def test_compute_bound_phases_have_low_stalls(self):
        """The two power-sensitive algorithms' hot phases are pipelined."""
        assert COSTS[("advection", "step")].stall_cycles < 50
        assert COSTS[("volume", "sample")].stall_cycles < 50

    def test_data_bound_phases_have_heavy_stalls(self):
        for key in [("contour", "classify"), ("threshold", "predicate"), ("clip", "classify")]:
            cost = COSTS[key]
            assert cost.stall_cycles > cost.instr_per_op * 0.3, key
