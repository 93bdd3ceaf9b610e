"""Power-policy governors: signal traces, governors × control methods."""

import dataclasses
import math

import pytest

from repro.cloverleaf import step_profile
from repro.insitu.governors import (
    CONTROL_METHODS,
    ConstGovernor,
    DutyCycleControl,
    FrequencyCapControl,
    GovernedRunResult,
    GovernedRuntime,
    LinearGovernor,
    ListGovernor,
    PowerCapControl,
    SignalSample,
    SignalTrace,
    StepGovernor,
    governed_caps_w,
    make_control,
    parse_governor,
)
from repro.machine.rapl import MIN_DUTY
from repro.machine.simulator import Processor


@pytest.fixture(scope="module")
def profile():
    return step_profile(32**3, 60)


# ----------------------------------------------------------------- traces
class TestSignalTrace:
    def test_value_at_sample_and_hold(self):
        tr = SignalTrace(
            (SignalSample(0.0, 10.0), SignalSample(1.0, 20.0), SignalSample(2.0, 30.0))
        )
        assert tr.value_at(-5.0) == 10.0  # before the trace: first value
        assert tr.value_at(0.5) == 10.0
        assert tr.value_at(1.0) == 20.0
        assert tr.value_at(99.0) == 30.0  # after the trace: held forever

    def test_rejects_empty_and_unordered_and_nonfinite(self):
        with pytest.raises(ValueError, match="at least one"):
            SignalTrace(())
        with pytest.raises(ValueError, match="order"):
            SignalTrace((SignalSample(1.0, 0.0), SignalSample(0.0, 0.0)))
        with pytest.raises(ValueError, match="non-finite"):
            SignalTrace((SignalSample(0.0, float("nan")),))

    def test_synthetic_is_deterministic_per_seed(self):
        a = SignalTrace.synthetic("walk", seed=9, n=20, lo=0.0, hi=100.0)
        b = SignalTrace.synthetic("walk", seed=9, n=20, lo=0.0, hi=100.0)
        c = SignalTrace.synthetic("walk", seed=10, n=20, lo=0.0, hi=100.0)
        assert a.samples == b.samples
        assert a.samples != c.samples
        assert all(0.0 <= s.value <= 100.0 for s in a.samples)

    def test_jsonl_roundtrip(self, tmp_path):
        tr = SignalTrace.synthetic("sine", seed=1, n=12, lo=50.0, hi=250.0, name="price")
        path = tr.to_jsonl(tmp_path / "price.jsonl")
        back = SignalTrace.from_jsonl(path)
        assert back.name == "price"
        assert back.samples == tr.samples

    def test_jsonl_rejects_foreign_files(self, tmp_path):
        p = tmp_path / "other.jsonl"
        p.write_text('{"format": "something-else"}\n')
        with pytest.raises(ValueError, match="not a signal trace"):
            SignalTrace.from_jsonl(p)

    def test_truncated_and_without(self):
        tr = SignalTrace.synthetic("square", seed=0, n=10)
        assert len(tr.truncated(0.5)) == 5
        assert len(tr.truncated(0.01)) == 1  # never empty
        holey = tr.without(range(1, 10))
        assert holey.samples == (tr.samples[0],)
        # With every sample gone, the first is kept so lookups still work.
        assert len(tr.without(range(10))) == 1


# -------------------------------------------------------------- governors
class TestGovernors:
    def test_const(self):
        assert ConstGovernor(0.8).limit(1e9) == 0.8
        with pytest.raises(ValueError):
            ConstGovernor(0.0)
        with pytest.raises(ValueError):
            ConstGovernor(1.5)

    def test_step(self):
        g = StepGovernor(((100.0, 0.7), (200.0, 0.5)))
        assert g.limit(0.0) == 1.0
        assert g.limit(100.0) == 0.7
        assert g.limit(199.9) == 0.7
        assert g.limit(500.0) == 0.5
        with pytest.raises(ValueError, match="increasing"):
            StepGovernor(((200.0, 0.7), (100.0, 0.5)))

    def test_list_snaps_to_nearest_level(self):
        g = ListGovernor(((100.0, 1.0), (300.0, 0.5)))
        assert g.limit(120.0) == 1.0
        assert g.limit(280.0) == 0.5
        assert g.limit(200.0) == 1.0  # tie resolves toward the lower signal

    def test_linear_interpolates_and_clamps(self):
        g = LinearGovernor(100.0, 500.0, min_fraction=0.25)
        assert g.limit(50.0) == 1.0
        assert g.limit(500.0) == pytest.approx(0.25)
        assert g.limit(300.0) == pytest.approx(0.625)
        assert g.limit(1e6) == pytest.approx(0.25)

    def test_parse_specs(self):
        assert isinstance(parse_governor("const:0.8"), ConstGovernor)
        assert parse_governor("const:80%").fraction == pytest.approx(0.8)
        g = parse_governor("step:100=0.7:200=0.5")
        assert g.limit(150.0) == 0.7
        assert parse_governor("linear:100:500:0.3").min_fraction == pytest.approx(0.3)
        assert parse_governor("list:100=1.0:300=0.5").limit(290.0) == 0.5
        for bad in ("pid:1:2", "step:abc=0.5", "linear:5", "const:2.0"):
            with pytest.raises(ValueError):
                parse_governor(bad)

    def test_describe_round_trips_through_parse(self):
        for spec in ("const:0.8", "step:100=0.7:200=0.5", "list:100=1:300=0.5"):
            g = parse_governor(spec)
            again = parse_governor(g.describe())
            for signal in (0.0, 150.0, 250.0, 400.0):
                assert g.limit(signal) == again.limit(signal)


# --------------------------------------------------------- control methods
class TestControlMethods:
    def test_power_cap_interpolates_floor_to_tdp(self, processor):
        ctrl = PowerCapControl(processor.spec)
        assert ctrl.setting(1.0).cap_w == pytest.approx(processor.spec.tdp_watts)
        lowest = ctrl.setting(1e-9).cap_w
        assert lowest == pytest.approx(processor.spec.rapl_floor_watts, abs=1e-3)

    def test_frequency_cap_picks_a_real_bin(self, processor):
        ctrl = FrequencyCapControl(processor.spec)
        bins = processor.spec.freq_bins
        top = ctrl.setting(1.0)
        assert top.f_ceiling_ghz == pytest.approx(float(bins[-1]))
        bottom = ctrl.setting(1e-9)
        assert bottom.f_ceiling_ghz == pytest.approx(float(bins[0]))
        for frac in (0.2, 0.5, 0.8):
            f = ctrl.setting(frac).f_ceiling_ghz
            assert any(math.isclose(f, float(b)) for b in bins)

    def test_duty_cycle_quantizes_to_levels(self, processor):
        ctrl = DutyCycleControl(processor.spec, n_levels=8)
        assert ctrl.setting(1.0).duty_cap == pytest.approx(1.0)
        assert ctrl.setting(1e-9).duty_cap == pytest.approx(MIN_DUTY)
        assert ctrl.setting(0.5).duty_cap == pytest.approx(0.5)
        with pytest.raises(ValueError, match="n_levels"):
            DutyCycleControl(processor.spec, n_levels=0)

    def test_make_control_registry(self, processor):
        for name in ("power", "frequency", "duty"):
            assert make_control(name, processor.spec).name == name
        assert set(CONTROL_METHODS) == {"power", "frequency", "duty"}
        with pytest.raises(ValueError, match="unknown control"):
            make_control("cgroup", processor.spec)


# ------------------------------------------ static-path bitwise equivalence
class TestStaticEquivalence:
    """Acceptance: every control method under ConstGovernor reproduces
    the static ``Processor.run`` path bitwise at the same setting."""

    @pytest.mark.parametrize("control", sorted(CONTROL_METHODS))
    def test_const_governor_matches_static_run(self, processor, profile, control):
        ctrl = make_control(control, processor.spec)
        runtime = GovernedRuntime(
            processor, ConstGovernor(1.0), ctrl, SignalTrace.constant(0.0)
        )
        governed = runtime.run(profile, 3)
        static = processor.run(profile, ctrl.setting(1.0).cap_w)
        for epoch in governed.epochs:
            assert epoch.time_s == static.time_s          # bitwise, not approx
            assert epoch.energy_j == static.energy_j
            assert epoch.freq_ghz == static.effective_freq_ghz
            assert epoch.cap_met == static.cap_met

    @pytest.mark.parametrize("fraction", (0.3, 0.6, 1.0))
    def test_power_cap_fraction_matches_static_cap(self, processor, profile, fraction):
        ctrl = PowerCapControl(processor.spec)
        setting = ctrl.setting(fraction)
        runtime = GovernedRuntime(
            processor, ConstGovernor(fraction), ctrl, SignalTrace.constant(0.0)
        )
        governed = runtime.run(profile, 2)
        static = processor.run(profile, setting.cap_w)
        assert all(e.time_s == static.time_s for e in governed.epochs)
        assert all(e.energy_j == static.energy_j for e in governed.epochs)

    def test_frequency_ceiling_matches_slower_part(self, processor, profile):
        """A pinned DVFS ceiling is bitwise the same run a machine whose
        turbo bin *is* that ceiling would produce at an uncapped TDP."""
        ctrl = FrequencyCapControl(processor.spec)
        setting = ctrl.setting(0.9)
        capped = processor.run(
            profile, processor.spec.tdp_watts, f_ceiling_ghz=setting.f_ceiling_ghz
        )
        slow_spec = dataclasses.replace(
            processor.spec,
            f_turbo=setting.f_ceiling_ghz,
            f_base=min(processor.spec.f_base, setting.f_ceiling_ghz),
        )
        native = Processor(slow_spec).run(profile, slow_spec.tdp_watts)
        assert capped.time_s == native.time_s
        assert capped.energy_j == native.energy_j

    def test_duty_cap_matches_closed_form(self, processor, profile):
        ctrl = DutyCycleControl(processor.spec)
        setting = ctrl.setting(0.5)
        run = processor.run(profile, processor.spec.tdp_watts, duty_cap=setting.duty_cap)
        assert all(
            math.isclose(r.duty, setting.duty_cap) for r in run.records
        )
        full = processor.run(profile, processor.spec.tdp_watts)
        assert run.time_s > full.time_s  # modulation costs time...
        assert run.avg_power_w < full.avg_power_w  # ...and saves power


# ----------------------------------------------------------------- runtime
class TestGovernedRuntime:
    def test_records_one_epoch_per_period(self, processor, profile):
        runtime = GovernedRuntime(
            processor,
            parse_governor("step:100=0.7:200=0.5"),
            PowerCapControl(processor.spec),
            SignalTrace.synthetic("walk", seed=3, n=24, lo=50.0, hi=250.0),
        )
        result = runtime.run(profile, 6)
        assert result.n_epochs == 6
        assert result.total_time_s == pytest.approx(sum(e.time_s for e in result.epochs))
        assert [e.epoch for e in result.epochs] == list(range(6))
        # Epoch start times accumulate the measured durations.
        for prev, cur in zip(result.epochs, result.epochs[1:]):
            assert cur.t_s == pytest.approx(prev.t_s + prev.time_s)

    def test_final_setting_and_empty_guard(self, processor, profile):
        runtime = GovernedRuntime(
            processor,
            ConstGovernor(0.5),
            PowerCapControl(processor.spec),
            SignalTrace.constant(0.0),
        )
        result = runtime.run(profile, 2)
        final = result.final_setting()
        assert final.control == "power"
        assert final.fraction == pytest.approx(0.5)
        with pytest.raises(ValueError, match="no epochs"):
            GovernedRunResult(governor="g", control="power", trace="t").final_setting()
        with pytest.raises(ValueError, match="at least one epoch"):
            runtime.run(profile, 0)


# ------------------------------------------------------------ sweep caps
class TestGovernedCaps:
    def test_dedupes_preserving_first_seen_order(self, processor):
        gov = parse_governor("step:100=0.5")
        trace = SignalTrace(
            tuple(
                SignalSample(float(i), v)
                for i, v in enumerate((0.0, 150.0, 0.0, 150.0, 150.0))
            )
        )
        caps = governed_caps_w(gov, trace, processor.spec, n_epochs=5, epoch_s=1.0)
        assert len(caps) == 2
        assert caps[0] == pytest.approx(processor.spec.tdp_watts)
        assert caps[0] > caps[1]

    def test_caps_stay_inside_rapl_window(self, processor):
        gov = LinearGovernor(0.0, 100.0, min_fraction=0.25)
        trace = SignalTrace.synthetic("walk", seed=5, n=30, lo=0.0, hi=100.0)
        caps = governed_caps_w(gov, trace, processor.spec, n_epochs=30)
        spec = processor.spec
        assert all(spec.rapl_floor_watts <= c <= spec.tdp_watts for c in caps)
        with pytest.raises(ValueError):
            governed_caps_w(gov, trace, spec, n_epochs=0)
