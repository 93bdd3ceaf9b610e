"""Piecewise (per-epoch) invariants for governed, time-varying caps."""

import dataclasses

import pytest

from repro.cloverleaf import step_profile
from repro.core.validate import PointValidator
from repro.insitu.governors import (
    CONTROL_METHODS,
    GovernedRuntime,
    PowerCapControl,
    SignalSample,
    SignalTrace,
    make_control,
    parse_governor,
)


@pytest.fixture(scope="module")
def profile():
    return step_profile(32**3, 60)


@pytest.fixture(scope="module")
def validator(processor):
    return PointValidator(processor.spec)


def governed_epochs(processor, profile, *, control="power", n_epochs=8):
    # Pace the trace to simulated epoch length so the signal actually
    # moves between epochs; alternating samples guarantee cap changes.
    epoch_s = processor.run(profile, processor.spec.tdp_watts).time_s
    trace = SignalTrace(
        tuple(
            SignalSample(k * epoch_s, 250.0 if k % 2 else 50.0) for k in range(64)
        ),
        name="alternating",
    )
    runtime = GovernedRuntime(
        processor,
        parse_governor("step:100=0.7:200=0.4"),
        make_control(control, processor.spec),
        trace,
    )
    return runtime.run(profile, n_epochs).epochs


class TestEpochInvariantsHold:
    @pytest.mark.parametrize("control", sorted(CONTROL_METHODS))
    def test_governed_traces_validate_clean(self, processor, profile, validator, control):
        epochs = governed_epochs(processor, profile, control=control)
        assert validator.check_epochs(epochs) == {}

    def test_varying_caps_are_fine_piecewise(self, processor, profile, validator):
        """The whole point of the restatement: a run whose cap changes
        epoch to epoch would violate a *global* monotone walk read as one
        group, but is legitimate when each epoch is checked against its
        own cap."""
        epochs = governed_epochs(processor, profile)
        assert len({round(e.cap_w, 6) for e in epochs}) >= 2  # caps really varied
        assert validator.check_epochs(epochs) == {}


class TestEpochViolationsCaught:
    def test_power_over_epoch_cap_quarantined(self, processor, profile, validator):
        epochs = list(governed_epochs(processor, profile))
        bad = dataclasses.replace(epochs[3], power_w=epochs[3].cap_w + 50.0)
        epochs[3] = bad
        found = validator.check_epochs(epochs)
        key = (bad.control, bad.epoch, bad.cap_w)
        assert key in found
        assert any(v.code == "power-over-cap" for v in found[key])

    def test_nonmonotone_epoch_quarantined(self, processor, profile, validator):
        """A genuine violation inside one epoch — running *faster* at a
        *lower* granted capacity — is still caught across epochs."""
        epochs = list(governed_epochs(processor, profile))
        lowest = min(epochs, key=lambda e: e.fraction)
        fastest = min(e.time_s for e in epochs)
        assert lowest.fraction < max(e.fraction for e in epochs)
        tampered = dataclasses.replace(lowest, time_s=fastest * 0.5)
        epochs[epochs.index(lowest)] = tampered
        found = validator.check_epochs(epochs)
        key = (tampered.control, tampered.epoch, tampered.cap_w)
        assert key in found
        assert any(v.code == "runtime-not-monotone" for v in found[key])

    def test_same_setting_disagreement_quarantined(self, processor, profile, validator):
        runtime = GovernedRuntime(
            processor,
            parse_governor("const:0.8"),
            PowerCapControl(processor.spec),
            SignalTrace.constant(0.0),
        )
        epochs = list(runtime.run(profile, 4).epochs)
        # Same programmed setting every epoch, but one record's time was
        # corrupted: deterministic replay cannot disagree legitimately.
        epochs[2] = dataclasses.replace(epochs[2], time_s=epochs[2].time_s * 1.5)
        found = validator.check_epochs(epochs)
        codes = {v.code for vs in found.values() for v in vs}
        assert "epoch-inconsistent" in codes

    def test_nonfinite_and_nonpositive_epochs_quarantined(
        self, processor, profile, validator
    ):
        epochs = list(governed_epochs(processor, profile, n_epochs=4))
        epochs[0] = dataclasses.replace(epochs[0], energy_j=float("nan"))
        epochs[1] = dataclasses.replace(epochs[1], power_w=-1.0)
        found = validator.check_epochs(epochs)
        codes = {v.code for vs in found.values() for v in vs}
        assert {"non-finite", "non-positive"} <= codes
