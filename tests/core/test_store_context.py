"""The store header is the one record of a sweep's context.

The header's ``meta`` carries everything its fingerprint hashes, so a
store names the socket that priced it: ``repro doctor`` validates each
store against its own spec.  A header written before it carried the
context still loads, resumes, and validates against the default spec.
"""

import json
import shutil
from dataclasses import asdict

import pytest

from repro.cli import main
from repro.core import (
    ALGORITHM_NAMES,
    ProfileCache,
    ResultStore,
    StoreMismatchError,
    StudyConfig,
    SweepEngine,
    validate_store,
)
from repro.core.store import CONTEXT_KEYS, sweep_fingerprint
from repro.machine import ALL_PRESETS, SKYLAKE_LIKE
from repro.obs.metrics import MetricsRegistry

GRID = StudyConfig(name="ctx", algorithms=ALGORITHM_NAMES, sizes=(12,))


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """The whole grid at 12³ on each preset, one store each; the
    ledgers are shared, since a ledger names no machine."""
    tmp = tmp_path_factory.mktemp("context")
    cache = ProfileCache(None)
    engines = {}
    for name, spec in ALL_PRESETS.items():
        engine = SweepEngine(
            spec,
            n_cycles=2,
            workers=0,
            store=tmp / f"{name}.jsonl",
            profile_cache=cache,
            metrics=MetricsRegistry(),
        )
        engine.run(GRID)
        engines[name] = engine
    return engines


def _copy(engine, tmp_path):
    path = tmp_path / engine.store.path.name
    shutil.copyfile(engine.store.path, path)
    return path


def _strip_context(path):
    """Rewrite the header as it was before it carried the sweep context:
    the same fingerprint, the spec by name only."""
    lines = path.read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    meta = header["meta"]
    header["meta"] = {
        "config_name": meta["config_name"],
        "spec": meta["spec"]["name"],
        "n_cycles": meta["n_cycles"],
    }
    path.write_text(json.dumps(header, sort_keys=True) + "\n" + "".join(lines[1:]))


def _restamp(path, **context):
    """Rewrite the header as a sweep under ``context`` would have
    written it: the meta, and the fingerprint that hashes it."""
    lines = path.read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    header["meta"].update(context)
    header["fingerprint"] = sweep_fingerprint({k: header["meta"][k] for k in CONTEXT_KEYS})
    path.write_text(json.dumps(header, sort_keys=True) + "\n" + "".join(lines[1:]))


@pytest.mark.parametrize(
    "kwargs, fingerprint", [({}, "acde2cdbce59e230"), ({"n_cycles": 2}, "50f3df8548f1f227")]
)
def test_stores_already_written_keep_their_fingerprint(kwargs, fingerprint):
    """A store resumes only while the engine hashes the context to the
    digest its header holds: the default sweep's and a two-cycle one's."""
    assert SweepEngine(workers=0, **kwargs).fingerprint() == fingerprint


@pytest.mark.parametrize("preset", sorted(ALL_PRESETS))
def test_header_names_the_spec_that_priced_the_store(stores, preset):
    engine = stores[preset]
    store = ResultStore(engine.store.path)
    assert store.spec == engine.spec
    assert store.meta == {"config_name": "ctx", **engine.context()}
    context = {k: store.meta[k] for k in CONTEXT_KEYS}
    assert sweep_fingerprint(context) == store.fingerprint == engine.fingerprint()
    assert validate_store(engine.store.path).ok


def test_doctor_passes_a_skylake_store_and_quarantines_nothing(stores, tmp_path, capsys):
    """Checked against Broadwell, 46 of these 64 points would fail:
    Skylake's all-core turbo is 2.9 GHz, not 2.6."""
    path = _copy(stores["skylake"], tmp_path)
    assert main(["doctor", str(path)]) == 0
    assert main(["doctor", str(path), "--quarantine"]) == 0
    assert "all invariants hold" in capsys.readouterr().out
    store = ResultStore(path)
    # The engine's own quarantine records (the 40 W cells, below
    # Skylake's 50 W RAPL floor) are the only ones.
    assert len(store) == 64
    assert {cap for _, _, cap in store.quarantined_keys()} == {40.0}


def test_header_without_context_loads_resumes_and_falls_back(stores, tmp_path):
    path = _copy(stores["skylake"], tmp_path)
    _strip_context(path)
    header = path.read_text().splitlines()[0]
    assert ResultStore(path).spec is None
    # The default spec judges it, as before the header carried the context.
    report = validate_store(path)
    assert report.n_bad == 46
    assert report.counts_by_code() == {"baseline-inconsistent": 8, "freq-out-of-range": 38}
    # Its fingerprint is the same digest, so the sweep resumes it whole.
    engine = SweepEngine(
        SKYLAKE_LIKE, n_cycles=2, workers=0, store=path, metrics=MetricsRegistry()
    )
    engine.run(GRID)
    assert engine.stats.profile_jobs_run == 0
    assert engine.stats.points_computed == 0
    assert engine.stats.points_resumed == 64
    assert path.read_text().splitlines()[0] == header


@pytest.mark.parametrize(
    "kwargs, named",
    [
        ({"dataset_kind": "ramp"}, "dataset_kind: 'ramp' != 'blobs'"),
        ({"spec": asdict(SKYLAKE_LIKE)}, "spec.tdp_watts: 150.0 != 120.0"),
        ({"seed": 8}, "seed: 8 != 7"),
    ],
)
def test_mismatch_names_the_context_keys_that_differ(stores, tmp_path, kwargs, named):
    """A store written under another context; cycle count:
    tests/core/test_engine.py."""
    path = _copy(stores["broadwell"], tmp_path)
    _restamp(path, **kwargs)
    with pytest.raises(StoreMismatchError) as err:
        SweepEngine(n_cycles=2, workers=0, store=path).run(GRID)
    assert named in str(err.value)
    assert "different machine spec" not in str(err.value)


def test_mismatch_against_a_header_without_context_lists_the_causes(stores, tmp_path):
    path = _copy(stores["broadwell"], tmp_path)
    _strip_context(path)
    with pytest.raises(StoreMismatchError, match="different machine spec, dataset, seed"):
        SweepEngine(n_cycles=3, workers=0, store=path).run(GRID)
