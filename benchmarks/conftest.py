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
from repro.core import SweepEngine
from repro.core.profiles import DEFAULT_CACHE_PATH


@pytest.fixture(scope="session")
def engine() -> SweepEngine:
    return api.sweep_engine(workers=0, cache=DEFAULT_CACHE_PATH)


@pytest.fixture(scope="session")
def phase2_result(engine):
    """All algorithms at 128³ — shared by Table II and Figs. 2–3."""
    return engine.run(api.resolve_config("table2"))


@pytest.fixture(scope="session")
def phase3_result(engine):
    """All algorithms at all sizes — shared by Figs. 4–6."""
    return engine.run(api.resolve_config("phase3"))
