"""Profile jobs build only the fields their algorithm reads.

Every profile job generates its dataset with ``make_dataset``.  The
velocity field is (n, 3) float64, three times the size of the energy
field, and only particle advection reads it, so the job bodies ask for
it only when the filter they run reads ``velocity``.
"""

from __future__ import annotations

import pytest

from repro.core import profiles
from repro.core.profiles import run_algorithm_ledger, run_algorithm_ledger_shard
from repro.viz import ALGORITHMS


@pytest.fixture
def velocity_requests(monkeypatch):
    """Record whether each dataset a profile job builds has velocity."""
    calls = []
    real = profiles.make_dataset

    def spy(n, **kwargs):
        ds = real(n, **kwargs)
        calls.append("velocity" in ds.fields)
        return ds

    monkeypatch.setattr(profiles, "make_dataset", spy)
    return calls


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_job_builds_velocity_only_for_advection(algorithm, velocity_requests):
    run_algorithm_ledger(algorithm, 8)
    assert velocity_requests == [algorithm == "advection"]


def test_shard_job_skips_velocity(velocity_requests):
    run_algorithm_ledger_shard("clip", 8, 0, 2)
    assert velocity_requests == [False]
