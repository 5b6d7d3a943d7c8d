"""Leakage-reduction baselines ([1-7] of the paper)."""

import pytest

from repro import units
from repro.cache.assignment import Assignment, knobs
from repro.errors import ConfigurationError
from repro.optimize.schemes import Scheme
from repro.optimize.single_cache import minimize_leakage
from repro.techniques import (
    DrowsyCache,
    GatedVddCache,
    ReverseBodyBias,
    drowsy_cell_leakage,
)
from repro.techniques.base import NoTechnique, TechniqueResult


@pytest.fixture(scope="module")
def assignment():
    return Assignment.uniform(knobs(0.3, 12))


@pytest.fixture(scope="module")
def baseline(l1_16k, assignment):
    return NoTechnique().evaluate(l1_16k, assignment)


class TestResultValidation:
    def test_rejects_negative_leakage(self):
        with pytest.raises(ConfigurationError):
            TechniqueResult(
                name="bad",
                leakage_power=-1.0,
                access_time_penalty=0.0,
                extra_miss_rate=0.0,
                retains_state=True,
            )

    def test_rejects_bad_miss_rate(self):
        with pytest.raises(ConfigurationError):
            TechniqueResult(
                name="bad",
                leakage_power=0.0,
                access_time_penalty=0.0,
                extra_miss_rate=1.5,
                retains_state=True,
            )


class TestNoTechnique:
    def test_matches_model(self, l1_16k, assignment, baseline):
        assert baseline.leakage_power == pytest.approx(
            l1_16k.leakage_power(assignment)
        )
        assert baseline.access_time_penalty == 0.0
        assert baseline.retains_state


class TestDrowsy:
    def test_reduces_leakage(self, l1_16k, assignment, baseline):
        result = DrowsyCache().evaluate(l1_16k, assignment)
        assert result.leakage_power < 0.5 * baseline.leakage_power

    def test_preserves_state(self, l1_16k, assignment):
        result = DrowsyCache().evaluate(l1_16k, assignment)
        assert result.retains_state
        assert result.extra_miss_rate == 0.0

    def test_charges_wake_latency(self, l1_16k, assignment):
        result = DrowsyCache().evaluate(l1_16k, assignment)
        assert result.access_time_penalty > 0

    def test_lower_retention_leaks_less(self, l1_16k, assignment):
        deep = DrowsyCache(retention_vdd=0.25).evaluate(l1_16k, assignment)
        shallow = DrowsyCache(retention_vdd=0.6).evaluate(l1_16k, assignment)
        assert deep.leakage_power < shallow.leakage_power

    def test_drowsy_cell_below_awake_cell(self, l1_16k):
        cell = l1_16k.components["array"].cell
        awake = cell.standby_leakage_current(0.3, units.angstrom(12))
        drowsy = drowsy_cell_leakage(
            l1_16k.technology, l1_16k.rule, 0.3, units.angstrom(12)
        )
        assert drowsy < 0.5 * awake

    def test_rejects_bad_retention(self, l1_16k):
        with pytest.raises(ConfigurationError):
            drowsy_cell_leakage(
                l1_16k.technology, l1_16k.rule, 0.3, units.angstrom(12),
                retention_vdd=1.5,
            )

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            DrowsyCache(awake_fraction=1.5)


class TestGatedVdd:
    def test_reduces_leakage_most(self, l1_16k, assignment, baseline):
        result = GatedVddCache().evaluate(l1_16k, assignment)
        assert result.leakage_power < 0.6 * baseline.leakage_power

    def test_loses_state(self, l1_16k, assignment):
        result = GatedVddCache().evaluate(l1_16k, assignment)
        assert not result.retains_state
        assert result.extra_miss_rate > 0

    def test_live_fraction_scales(self, l1_16k, assignment):
        mostly_off = GatedVddCache(live_fraction=0.1).evaluate(
            l1_16k, assignment
        )
        mostly_on = GatedVddCache(live_fraction=0.9).evaluate(
            l1_16k, assignment
        )
        assert mostly_off.leakage_power < mostly_on.leakage_power

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            GatedVddCache(live_fraction=-0.1)


class TestReverseBodyBias:
    def test_vth_shift(self, l1_16k):
        technique = ReverseBodyBias(bias=0.5)
        assert technique.vth_shift(l1_16k.technology) == pytest.approx(
            l1_16k.technology.body_effect_gamma * 0.5
        )

    def test_reduces_leakage_at_thick_oxide(self, l1_16k):
        """With gate tunnelling suppressed by thick oxide, RBB's
        subthreshold suppression shows through."""
        assignment = Assignment.uniform(knobs(0.25, 14))
        base = NoTechnique().evaluate(l1_16k, assignment)
        result = ReverseBodyBias().evaluate(l1_16k, assignment)
        assert result.leakage_power < 0.7 * base.leakage_power

    def test_floored_by_gate_leakage_at_thin_oxide(self, l1_16k):
        """The paper's total-leakage point: RBB cannot touch the gate
        floor, so at 10 Å it barely helps."""
        assignment = Assignment.uniform(knobs(0.3, 10))
        base = NoTechnique().evaluate(l1_16k, assignment)
        result = ReverseBodyBias().evaluate(l1_16k, assignment)
        assert result.leakage_power > 0.7 * base.leakage_power

    def test_preserves_state(self, l1_16k, assignment):
        result = ReverseBodyBias().evaluate(l1_16k, assignment)
        assert result.retains_state

    def test_stronger_bias_leaks_less_until_btbt(self, l1_16k, assignment):
        weak = ReverseBodyBias(bias=0.2).evaluate(l1_16k, assignment)
        strong = ReverseBodyBias(bias=0.8).evaluate(l1_16k, assignment)
        assert strong.leakage_power <= weak.leakage_power

    def test_rejects_negative_bias(self):
        with pytest.raises(ConfigurationError):
            ReverseBodyBias(bias=-0.1)


class TestCrossTechniqueOrdering:
    def test_all_beat_or_match_baseline(self, l1_16k, assignment, baseline):
        for technique in (DrowsyCache(), GatedVddCache(), ReverseBodyBias()):
            result = technique.evaluate(l1_16k, assignment)
            assert result.leakage_power <= baseline.leakage_power * 1.001

    def test_state_losing_technique_is_flagged(self, l1_16k, assignment):
        results = {
            technique.name: technique.evaluate(l1_16k, assignment)
            for technique in (DrowsyCache(), GatedVddCache(),
                              ReverseBodyBias())
        }
        assert not results["gated-vdd"].retains_state
        assert results["drowsy"].retains_state
        assert results["reverse-body-bias"].retains_state


class TestKnobAssignmentAlone:
    def test_scheme2_optimum_halves_mid_grid_leakage(
        self, l1_16k, baseline
    ):
        """E10: with no runtime mechanism at all, the Section 4 Scheme II
        optimum leaks under half of the mid-grid design the techniques
        above start from."""
        optimised = minimize_leakage(
            l1_16k, Scheme.CELL_VS_PERIPHERY, units.ps(1300)
        ).assignment
        result = NoTechnique().evaluate(l1_16k, optimised)
        assert result.leakage_power < 0.5 * baseline.leakage_power
