"""Shared fixtures: small grids and datasets so the suite stays fast."""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.profiles import profile_from_ledger, run_algorithm_ledger
from repro.core.runner import DEFAULT_VIZ_CYCLES
from repro.data import Association, DataSet, UniformGrid
from repro.data.generators import (
    abc_flow,
    gaussian_blobs,
    linear_ramp,
    rotation_vector_field,
    sphere_distance,
)
from repro.machine import Processor


@pytest.fixture(scope="session")
def grid16() -> UniformGrid:
    return UniformGrid.cube(16)


@pytest.fixture(scope="session")
def grid8() -> UniformGrid:
    return UniformGrid.cube(8)


@pytest.fixture(scope="session")
def sphere_ds(grid16) -> DataSet:
    """16³ dataset whose scalar is distance from the center."""
    ds = DataSet(grid16)
    ds.add_field("energy", sphere_distance(grid16), Association.POINT)
    return ds


@pytest.fixture(scope="session")
def ramp_ds(grid16) -> DataSet:
    """16³ dataset with a linear x-ramp (exact planar isosurfaces)."""
    ds = DataSet(grid16)
    ds.add_field("energy", linear_ramp(grid16), Association.POINT)
    return ds


@pytest.fixture(scope="session")
def blobs_ds(grid16) -> DataSet:
    """16³ dataset with Gaussian blobs and a rotational velocity field."""
    ds = DataSet(grid16)
    ds.add_field("energy", gaussian_blobs(grid16), Association.POINT)
    ds.add_field("velocity", rotation_vector_field(grid16), Association.POINT)
    return ds


@pytest.fixture(scope="session")
def abc_ds(grid16) -> DataSet:
    ds = DataSet(grid16)
    ds.add_field("energy", gaussian_blobs(grid16), Association.POINT)
    ds.add_field("velocity", abc_flow(grid16), Association.POINT)
    return ds


@pytest.fixture(scope="session")
def processor() -> Processor:
    return Processor()


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture(scope="session")
def golden_points():
    """``golden_points(config)``: the recorded ``to_dict()`` points of
    ``config``, a sub-grid of ``tests/golden/runpoints.json``, in the
    engine's sweep order (algorithm, size, cap).

    The file holds all eight algorithms x nine caps at 12^3 (blobs,
    seed 7, ``n_cycles=2``); compare an engine result with
    ``[p.to_dict() for p in result.points] == golden_points(config)``.
    """
    doc = json.loads((Path(__file__).parent / "golden" / "runpoints.json").read_text())
    by_key = {(p["algorithm"], p["size"], p["cap_w"]): p for p in doc["points"]}

    def points(config) -> list[dict]:
        return [by_key[key] for key in config.configurations()]

    return points


@pytest.fixture(scope="session")
def study_profile():
    """``study_profile(algorithm, size, n_cycles=...)``: the cycle-scaled
    work profile the sweep engine prices for one study cell, built the
    engine's way: ``profile_from_ledger`` over the algorithm's op-count
    ledger (blobs, seed 7).  Each ledger is recorded once per session.
    """
    ledger = functools.cache(run_algorithm_ledger)

    def profile(algorithm: str, size: int, *, n_cycles: int = DEFAULT_VIZ_CYCLES):
        return profile_from_ledger(algorithm, size, ledger(algorithm, size), n_cycles=n_cycles)

    return profile
