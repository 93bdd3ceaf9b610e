"""Multi-socket cluster with manufacturing variation (§III-A)."""

import numpy as np
import pytest

from repro.insitu import Cluster, demand_aware_caps, uniform_caps
from repro.workload import WorkProfile


@pytest.fixture(scope="module")
def workloads(study_profile):
    """Four sockets with imbalanced work (1x .. 2.5x of a volume render)."""
    base = study_profile("volume", 24, n_cycles=2)

    def scaled(f):
        p = WorkProfile(name=f"w{f}", n_elements=base.n_elements)
        p.segments = [s.scaled(f) for s in base.segments]
        return p

    return [scaled(f) for f in (1.0, 1.5, 2.0, 2.5)]


class TestCluster:
    def test_variation_is_seeded(self):
        a = Cluster(4, seed=3)
        b = Cluster(4, seed=3)
        c = Cluster(4, seed=4)
        np.testing.assert_array_equal(a.efficiency_factors, b.efficiency_factors)
        assert not np.array_equal(a.efficiency_factors, c.efficiency_factors)

    def test_zero_variation_identical_parts(self, workloads):
        cl = Cluster(4, variation=0.0)
        res = cl.run([workloads[0]] * 4, [80.0] * 4, "x")
        times = [r.time_s for r in res.runs]
        assert max(times) == pytest.approx(min(times), rel=1e-12)

    def test_variation_spreads_performance_under_uniform_cap(self, workloads):
        """The paper (§III-A): a uniform cap yields different frequencies
        on otherwise identical processors."""
        cl = Cluster(6, variation=0.08, seed=1)
        res = cl.run([workloads[0]] * 6, [70.0] * 6, "uniform")
        freqs = [r.freq_ghz for r in res.runs]
        assert max(freqs) - min(freqs) > 0.05

    def test_validation(self, workloads):
        with pytest.raises(ValueError):
            Cluster(0)
        with pytest.raises(ValueError):
            Cluster(2, variation=0.9)
        cl = Cluster(2)
        with pytest.raises(ValueError):
            cl.run(workloads[:1], [80.0, 80.0], "x")


class TestStrategies:
    # Tight enough that the heavy socket throttles at the uniform split
    # (volume rendering draws ~83 W; uniform gives each socket 65 W).
    BUDGET = 4 * 65.0

    def test_uniform_holds_budget(self, workloads):
        cl = Cluster(4, seed=2)
        res = uniform_caps(cl, workloads, self.BUDGET)
        assert sum(r.cap_w for r in res.runs) <= self.BUDGET + 1e-6

    def test_demand_aware_holds_budget(self, workloads):
        cl = Cluster(4, seed=2)
        res = demand_aware_caps(cl, workloads, self.BUDGET)
        assert sum(r.cap_w for r in res.runs) <= self.BUDGET + 1e-6

    def test_demand_aware_beats_uniform_on_imbalance(self, workloads):
        """§III-A: assign power to the sockets that need it most."""
        cl = Cluster(4, seed=2)
        uni = uniform_caps(cl, workloads, self.BUDGET)
        dem = demand_aware_caps(cl, workloads, self.BUDGET)
        assert dem.makespan_s < uni.makespan_s
        # The critical (heaviest) socket received a higher cap.
        assert dem.runs[3].cap_w > uni.runs[3].cap_w

    def test_demand_aware_reduces_stranded_capacity(self, workloads):
        cl = Cluster(4, seed=2)
        uni = uniform_caps(cl, workloads, self.BUDGET)
        dem = demand_aware_caps(cl, workloads, self.BUDGET)
        assert dem.idle_ratio < uni.idle_ratio

    def test_budget_below_floor_rejected(self, workloads):
        cl = Cluster(4)
        with pytest.raises(ValueError, match="floor"):
            demand_aware_caps(cl, workloads, 100.0)
