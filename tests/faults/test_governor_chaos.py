"""Signal-feed chaos drills for governed power policies."""

import pytest

from repro.faults import PLANS, GovernorFaultPlan, get_plan, run_governor_chaos
from repro.insitu.governors import CONTROL_METHODS


class TestPlans:
    def test_named_plans_resolve(self):
        assert set(PLANS["governor"]) == {"none", "default", "blackout"}
        assert get_plan("default", "governor").signal_dropout_p > 0
        with pytest.raises(
            ValueError,
            match=r"unknown fault plan 'nope' for the governor drill; "
            r"expected one of \['blackout', 'default', 'none'\]",
        ):
            get_plan("nope", "governor")

    def test_dropout_indices_deterministic_and_seeded(self):
        plan = get_plan("default", "governor")
        assert plan.dropout_indices(40) == plan.dropout_indices(40)
        reseeded = GovernorFaultPlan(
            name="x", seed=99, signal_dropout_p=plan.signal_dropout_p
        )
        assert plan.dropout_indices(40) != reseeded.dropout_indices(40)
        assert 0 not in plan.dropout_indices(40)  # first sample always kept
        assert GovernorFaultPlan(name="z").dropout_indices(40) == []

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            GovernorFaultPlan(name="bad", signal_dropout_p=1.5)
        with pytest.raises(ValueError):
            GovernorFaultPlan(name="bad", truncate_frac=0.0)


class TestDrillsSurvive:
    @pytest.mark.parametrize("control", sorted(CONTROL_METHODS))
    def test_default_plan_survives_every_control(self, control):
        report = run_governor_chaos(
            get_plan("default", "governor"), control=control, n_epochs=6, n_steps=30
        )
        assert report.survived, report.render()
        assert report.bitwise_identical
        assert set(report.violations) == {
            "reference",
            "signal-dropout",
            "step-discontinuity",
            "trace-truncation",
        }
        assert all(n == 0 for n in report.violations.values())

    def test_blackout_plan_survives(self):
        report = run_governor_chaos(
            get_plan("blackout", "governor"), n_epochs=6, n_steps=30
        )
        assert report.survived, report.render()
        # Blackout really does degrade the feed, not just nominally.
        assert report.samples_dropped > report.samples_total // 2
        assert report.truncated_to < report.samples_total // 4

    def test_governor_spec_and_linear_policy(self):
        report = run_governor_chaos(
            get_plan("default", "governor"),
            governor="linear:50:250:0.4",
            n_epochs=5,
            n_steps=30,
        )
        assert report.survived, report.render()
        assert report.governor.startswith("linear:")

    def test_render_is_greppable(self):
        report = run_governor_chaos(get_plan("none", "governor"), n_epochs=4, n_steps=30)
        text = report.render()
        assert "governor invariants intact under chaos: yes" in text
        assert "clean replay bitwise identical: yes" in text

    def test_broken_contract_reports_no(self):
        report = run_governor_chaos(get_plan("none", "governor"), n_epochs=4, n_steps=30)
        report.violations["signal-dropout"] = 2
        assert not report.survived
        assert "governor invariants intact under chaos: NO" in report.render()
