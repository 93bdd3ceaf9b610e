"""Shared benchmark fixtures.

The engine fixture is session-scoped: real algorithm executions are
recorded once (persisted in the CLI's ledger cache under .cache/) and
every benchmark re-prices them through the machine model, so the full
table/figure suite runs in seconds after the first warm-up.

Set ``REPRO_MAX_SIZE=128`` (for example) to smoke-test the benchmark
suite without the 256³ extractions.
"""

import pytest

from repro import api
from repro.core import PowerAdvisor, SweepEngine, profile_from_ledger
from repro.core.profiles import DEFAULT_CACHE_PATH


@pytest.fixture(scope="session")
def engine() -> SweepEngine:
    return SweepEngine(workers=0, profile_cache=DEFAULT_CACHE_PATH)


@pytest.fixture(scope="session")
def study_profile(engine):
    """``study_profile(algorithm, size)``: the engine's cycle-scaled work
    profile, from the shared ledger cache (recorded there on a miss)."""
    advisor = PowerAdvisor(engine.spec, cache=engine.profile_cache, n_cycles=engine.n_cycles)

    def profile(algorithm: str, size: int):
        ledger, _ = advisor.ledger_for(algorithm, size)
        return profile_from_ledger(algorithm, size, ledger, n_cycles=engine.n_cycles)

    return profile


@pytest.fixture(scope="session")
def phase2_result(engine):
    """All algorithms at 128³ — shared by Table II and Figs. 2–3."""
    return engine.run(api.resolve_config("table2"))


@pytest.fixture(scope="session")
def phase3_result(engine):
    """All algorithms at all sizes — shared by Figs. 4–6."""
    return engine.run(api.resolve_config("phase3"))
