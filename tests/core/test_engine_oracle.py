"""The sweep engine against the scalar oracle, bit for bit.

The engine prices each (algorithm, size) group in one
:class:`~repro.core.pricing.BatchRepricer` pass.  ``Processor.run``
followed by ``make_run_point`` is the scalar path it must equal, and
``RunResult.sample_stream`` the stream every sampled point must carry.
Floats are compared by their IEEE-754 bytes: ``==`` cannot tell -0.0
from 0.0.

Caps below a spec's RAPL floor are clamped, so the delivered power can
exceed the requested cap and the invariant gate quarantines the point
(the Skylake-like and many-core presets at 40 W, every spec at 20 W).
The oracle runs the same gate over its own points, so quarantined
points are compared too, as the store's quarantine records.
"""

import dataclasses
import struct

import pytest

from repro.core import ResultStore, StudyConfig, SweepEngine
from repro.core.profiles import ProfileCache, profile_from_ledger, run_algorithm_ledger
from repro.core.runner import make_run_point
from repro.core.study import ALGORITHM_NAMES, POWER_CAPS_W
from repro.core.validate import PointValidator
from repro.faults import FaultPlan
from repro.machine.presets import ALL_PRESETS
from repro.machine.simulator import PowerSample, Processor
from repro.machine.spec import BROADWELL_E5_2695V4
from repro.obs.metrics import MetricsRegistry, load_metrics

SIZE = 12
N_CYCLES = 2

#: A 5 W RAPL floor admits caps below the lowest P-state's power, so the
#: controller duty-cycles (and below ~22.5 W misses the cap even then).
FLOOR_SPEC = dataclasses.replace(BROADWELL_E5_2695V4, rapl_floor_watts=5.0)
THROTTLE_CAPS = (20.0, 23.5, 30.0, 120.0)

SPECS = {**ALL_PRESETS, "5w-floor": FLOOR_SPEC}
SAMPLE_FIELDS = [f.name for f in dataclasses.fields(PowerSample)]


def bits(value):
    """``value`` with every float replaced by its IEEE-754 bytes."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, dict):
        return {k: bits(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    return value


def point_bits(points) -> list:
    return [bits(p.to_dict()) for p in points]


@pytest.fixture(scope="module")
def ledgers() -> ProfileCache:
    """Every algorithm's 12^3 ledger, shared by all engines below (a
    ledger holds op counts; no machine spec enters it)."""
    cache = ProfileCache(None)
    for alg in ALGORITHM_NAMES:
        cache.put(alg, SIZE, run_algorithm_ledger(alg, SIZE))
    return cache


def make_engine(spec, ledgers, store, **kwargs) -> SweepEngine:
    return SweepEngine(
        spec,
        n_cycles=N_CYCLES,
        workers=0,
        store=store,
        profile_cache=ledgers,
        metrics=MetricsRegistry(),
        **kwargs,
    )


def oracle_profile(ledgers, alg):
    return profile_from_ledger(alg, SIZE, ledgers.get(alg, SIZE), n_cycles=N_CYCLES)


def oracle_group(processor, ledgers, alg, caps, default):
    """The scalar path: ``Processor.run`` per cap + ``make_run_point``."""
    profile = oracle_profile(ledgers, alg)
    base = processor.run(profile, default)
    return [
        make_run_point(alg, SIZE, cap, base if cap == default else processor.run(profile, cap),
                       base, default)
        for cap in caps
    ]


def oracle_sweep(spec, ledgers, config, sense=lambda p: p):
    """A fresh sweep's ground truth in sweep order: the oracle's points,
    passed through ``sense`` (a sensor-fault site), then split by the
    invariant gate into (survivors, quarantined)."""
    processor = Processor(spec)
    validator = PointValidator(spec)
    survivors, quarantined = [], []
    for alg in config.algorithms:
        group = [
            sense(p)
            for p in oracle_group(processor, ledgers, alg, config.caps_w, config.default_cap_w)
        ]
        bad = validator.check_group(group)
        for p in group:
            (quarantined if p.key in bad else survivors).append(p)
    return survivors, quarantined


def assert_sweep_matches(result, store, expected) -> None:
    survivors, quarantined = expected
    assert point_bits(result.points) == point_bits(survivors)
    assert point_bits(p for p, _ in ResultStore(store).quarantined()) == point_bits(quarantined)


def oracle_runs(spec, ledgers, keys) -> dict:
    processor = Processor(spec)
    return {key: processor.run(oracle_profile(ledgers, key[0]), key[2]) for key in keys}


def stored_streams(store) -> dict:
    """The engine's sample streams as ``ResultStore.samples`` returns them."""
    streams: dict = {}
    for rec in ResultStore(store).samples():
        stream = streams.setdefault((rec["algorithm"], rec["size"], rec["cap_w"]), [])
        assert rec["i"] == len(stream)
        stream.append(bits({k: rec[k] for k in SAMPLE_FIELDS}))
    return streams


def oracle_streams(runs: dict) -> dict:
    return {
        key: [bits(dataclasses.asdict(s)) for s in run.sample_stream(0.1)]
        for key, run in runs.items()
    }


class TestPoints:
    @pytest.mark.parametrize(
        "spec_name, caps",
        [(name, POWER_CAPS_W) for name in SPECS] + [("5w-floor", THROTTLE_CAPS)],
    )
    def test_sweep_equals_the_scalar_oracle(self, spec_name, caps, ledgers, tmp_path):
        spec = SPECS[spec_name]
        config = StudyConfig("oracle", ALGORITHM_NAMES, (SIZE,), caps_w=caps)
        store = tmp_path / "sweep.jsonl"
        result = make_engine(spec, ledgers, store).run(config)
        assert_sweep_matches(result, store, oracle_sweep(spec, ledgers, config))

    @pytest.mark.parametrize(
        "kept", [(120.0, 90.0, 50.0), (100.0, 60.0)], ids=["baseline-stored", "baseline-missing"]
    )
    def test_resume_prices_the_missing_caps_like_the_oracle(self, kept, ledgers, tmp_path):
        config = StudyConfig("oracle", ALGORITHM_NAMES, (SIZE,))
        store = tmp_path / "sweep.jsonl"
        make_engine(BROADWELL_E5_2695V4, ledgers, store).run(config)
        ResultStore(store).remove(
            (alg, SIZE, cap) for alg in ALGORITHM_NAMES for cap in POWER_CAPS_W if cap not in kept
        )
        engine = make_engine(BROADWELL_E5_2695V4, ledgers, store)
        result = engine.run(config)
        n_missing = len(POWER_CAPS_W) - len(kept)
        assert engine.stats.points_resumed == len(ALGORITHM_NAMES) * len(kept)
        assert engine.stats.points_computed == len(ALGORITHM_NAMES) * n_missing
        survivors, quarantined = oracle_sweep(BROADWELL_E5_2695V4, ledgers, config)
        assert not quarantined
        assert point_bits(result.points) == point_bits(survivors)
        stored = {p.key: bits(p.to_dict()) for p in ResultStore(store)}
        assert stored == {p.key: bits(p.to_dict()) for p in survivors}


class TestRaplCounters:
    """The counters count what the pricing pass stands for: the scalar
    controller's decisions over the base run plus one run per missing
    non-default cap."""

    CONFIG = StudyConfig("rapl", ALGORITHM_NAMES, (SIZE,), caps_w=THROTTLE_CAPS)

    @staticmethod
    def oracle(ledgers, missing: dict) -> tuple[int, int]:
        processor = Processor(FLOOR_SPEC)
        for alg, caps in missing.items():
            oracle_group(processor, ledgers, alg, caps, 120.0)
        return processor.rapl.decisions, processor.rapl.throttle_decisions

    @staticmethod
    def published(engine, store) -> tuple[float, float]:
        names = ("repro_rapl_decisions_total", "repro_rapl_throttle_decisions_total")
        live = tuple(engine.metrics.counter(n).value for n in names)
        dumped = load_metrics(store.with_suffix(".metrics.json"))
        assert tuple(dumped.counter(n).value for n in names) == live
        return live

    def test_fresh_sweep(self, ledgers, tmp_path):
        store = tmp_path / "sweep.jsonl"
        engine = make_engine(FLOOR_SPEC, ledgers, store)
        engine.run(self.CONFIG)
        expected = self.oracle(ledgers, {alg: THROTTLE_CAPS for alg in ALGORITHM_NAMES})
        assert expected[1] > 0  # the caps below the P-state range throttle
        assert self.published(engine, store) == expected

    def test_resume_counts_only_the_missing_caps(self, ledgers, tmp_path):
        store = tmp_path / "sweep.jsonl"
        make_engine(FLOOR_SPEC, ledgers, store).run(self.CONFIG)
        # Every group misses 23.5 W; half of them miss their baseline.
        # (20 W points are quarantined, so every group misses them too.)
        missing = {
            alg: (20.0, 23.5, 120.0) if i % 2 else (20.0, 23.5)
            for i, alg in enumerate(ALGORITHM_NAMES)
        }
        ResultStore(store).remove(
            (alg, SIZE, cap) for alg, caps in missing.items() for cap in caps
        )
        engine = make_engine(FLOOR_SPEC, ledgers, store)
        engine.run(self.CONFIG)
        assert engine.stats.points_resumed == sum(4 - len(c) for c in missing.values())
        assert self.published(engine, store) == self.oracle(ledgers, missing)


class TestStreams:
    @pytest.mark.parametrize(
        "spec_name, caps", [("broadwell", POWER_CAPS_W), ("5w-floor", THROTTLE_CAPS)]
    )
    def test_every_stream_equals_the_oracle_stream(self, spec_name, caps, ledgers, tmp_path):
        spec = SPECS[spec_name]
        config = StudyConfig("streams", ALGORITHM_NAMES, (SIZE,), caps_w=caps)
        store = tmp_path / "sweep.jsonl"
        engine = make_engine(spec, ledgers, store, samples=True)
        result = engine.run(config)
        runs = oracle_runs(spec, ledgers, [p.key for p in result.points])
        assert stored_streams(store) == oracle_streams(runs)
        if spec is FLOOR_SPEC:
            # The 23.5 W cells run duty-cycled and survive the gate.
            assert any(r.duty < 1.0 for run in runs.values() for r in run.records)


class TestNoScalarPricing:
    @pytest.mark.parametrize("samples", [False, True], ids=["bare", "sampled"])
    def test_serial_sweep_never_calls_processor_run(self, samples, ledgers, tmp_path, monkeypatch):
        def scalar_run(*args, **kwargs):
            raise AssertionError("the sweep engine priced a cap through Processor.run")

        monkeypatch.setattr(Processor, "run", scalar_run)
        config = StudyConfig("guard", ALGORITHM_NAMES, (SIZE,))
        engine = make_engine(BROADWELL_E5_2695V4, ledgers, tmp_path / "sweep.jsonl", samples=samples)
        result = engine.run(config)
        assert len(result.points) == config.n_configurations


class TestFaults:
    def test_corruption_sees_ground_truth_and_survivors_keep_their_streams(
        self, ledgers, tmp_path, monkeypatch
    ):
        plan = FaultPlan(seed=3, point_corrupt_p=0.25)
        corrupt = FaultPlan.corrupt_point
        seen = []

        def recording(self, point):
            seen.append(point)
            return corrupt(self, point)

        monkeypatch.setattr(FaultPlan, "corrupt_point", recording)
        config = StudyConfig("faults", ALGORITHM_NAMES, (SIZE,))
        store = tmp_path / "sweep.jsonl"
        engine = make_engine(BROADWELL_E5_2695V4, ledgers, store, samples=True, faults=plan)
        result = engine.run(config)

        truth, none = oracle_sweep(BROADWELL_E5_2695V4, ledgers, config)
        assert not none  # Broadwell holds every paper cap: the gate passes all
        assert point_bits(seen) == point_bits(truth)
        expected = oracle_sweep(
            BROADWELL_E5_2695V4, ledgers, config, sense=lambda p: corrupt(plan, p)
        )
        assert expected[1], "the plan must quarantine some points"
        assert_sweep_matches(result, store, expected)
        runs = oracle_runs(BROADWELL_E5_2695V4, ledgers, [p.key for p in expected[0]])
        assert stored_streams(store) == oracle_streams(runs)
