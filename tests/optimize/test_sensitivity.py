"""Local knob-sensitivity analysis."""

import pytest

from repro.cache.assignment import COMPONENT_NAMES, Assignment, knobs
from repro.errors import OptimizationError
from repro.optimize.sensitivity import (
    KnobSensitivity,
    best_move,
    knob_sensitivities,
)


@pytest.fixture(scope="module")
def mid_sensitivities(l1_16k):
    return knob_sensitivities(l1_16k, Assignment.uniform(knobs(0.3, 12)))


class TestSensitivities:
    def test_covers_all_components_and_knobs(self, mid_sensitivities):
        keys = {(s.component, s.knob) for s in mid_sensitivities}
        assert len(keys) == 8  # 4 components x 2 knobs, mid-grid

    def test_raising_either_knob_saves_leakage(self, mid_sensitivities):
        for sensitivity in mid_sensitivities:
            assert sensitivity.leakage_delta < 0

    def test_raising_either_knob_costs_delay(self, mid_sensitivities):
        for sensitivity in mid_sensitivities:
            assert sensitivity.delay_delta > 0

    def test_moves_at_box_edge_skipped(self, l1_16k):
        sensitivities = knob_sensitivities(
            l1_16k, Assignment.uniform(knobs(0.5, 14))
        )
        assert sensitivities == []

    def test_vth_move_landing_on_box_edge_taken(self, l1_16k, technology):
        """0.45 V + 0.05 V is exactly ``vth_max``: inside the box."""
        assert 0.45 + 0.05 == technology.vth_max
        sensitivities = knob_sensitivities(
            l1_16k, Assignment.uniform(knobs(0.45, 14)), vth_step=0.05
        )
        assert {(s.component, s.knob) for s in sensitivities} == {
            (name, "vth") for name in COMPONENT_NAMES
        }

    def test_vth_move_beyond_box_edge_skipped(self, l1_16k, technology):
        """A move landing 1e-13 V above ``vth_max`` leaves the box: the
        design-box rule has no Vth slack."""
        step = 0.05 + 1e-13
        assert technology.vth_max < 0.45 + step < technology.vth_max + 1e-12
        sensitivities = knob_sensitivities(
            l1_16k, Assignment.uniform(knobs(0.45, 14)), vth_step=step
        )
        assert sensitivities == []

    def test_rejects_nonpositive_step(self, l1_16k):
        with pytest.raises(OptimizationError):
            knob_sensitivities(
                l1_16k, Assignment.uniform(knobs(0.3, 12)), vth_step=0.0
            )


class TestExchangeRates:
    def test_array_vth_is_a_top_move_at_low_vth(self, l1_16k):
        """From an aggressive design, raising the *array's* Vth has the
        best exchange rate — the structural reason Schemes I/II park the
        array at high Vth first."""
        sensitivities = knob_sensitivities(
            l1_16k, Assignment.uniform(knobs(0.2, 12))
        )
        move = best_move(sensitivities)
        assert move.component == "array"

    def test_free_win_has_infinite_rate(self):
        sensitivity = KnobSensitivity(
            component="array",
            knob="vth",
            step=0.025,
            leakage_delta=-1e-3,
            delay_delta=0.0,
        )
        assert sensitivity.exchange_rate == float("inf")

    def test_best_move_requires_a_saving(self):
        useless = KnobSensitivity(
            component="array",
            knob="tox",
            step=0.5,
            leakage_delta=1e-6,
            delay_delta=1e-12,
        )
        with pytest.raises(OptimizationError):
            best_move([useless])
