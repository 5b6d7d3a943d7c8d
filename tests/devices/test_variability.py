"""Random dopant fluctuation model."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.devices.variability import (
    leakage_variability_multiplier,
    percentile_vth_shift,
    population_leakage,
    vth_sigma,
)
from repro.errors import DeviceModelError


class TestPelgrom:
    def test_minimum_device_sigma_magnitude(self, technology):
        """65 nm minimum devices: sigma_Vth ~ 30-60 mV."""
        sigma = vth_sigma(
            technology, technology.wmin, technology.lgate_drawn
        )
        assert 0.025 < sigma < 0.070

    def test_bigger_devices_match_better(self, technology):
        small = vth_sigma(technology, 90e-9, 65e-9)
        large = vth_sigma(technology, 360e-9, 65e-9)
        assert large == pytest.approx(small / 2.0)

    def test_rejects_nonpositive_geometry(self, technology):
        with pytest.raises(DeviceModelError):
            vth_sigma(technology, 0.0, 65e-9)

    def test_rejects_nonpositive_avt(self, technology):
        with pytest.raises(DeviceModelError):
            vth_sigma(technology, 90e-9, 65e-9, avt=0.0)


class TestMultiplier:
    def test_zero_sigma_is_identity(self, technology):
        assert leakage_variability_multiplier(technology, 0.0) == 1.0

    def test_always_at_least_one(self, technology):
        assert leakage_variability_multiplier(technology, 0.04) > 1.0

    def test_hand_computed(self, technology):
        n_vt = (
            technology.subthreshold_swing_n * technology.thermal_voltage
        )
        sigma = 0.045
        expected = math.exp(sigma**2 / (2 * n_vt**2))
        assert leakage_variability_multiplier(
            technology, sigma
        ) == pytest.approx(expected)

    @given(sigma=st.floats(min_value=0.0, max_value=0.08))
    def test_monotone_in_sigma(self, technology, sigma):
        here = leakage_variability_multiplier(technology, sigma)
        more = leakage_variability_multiplier(technology, sigma + 0.005)
        assert more > here

    def test_realistic_magnitude(self, technology):
        """A 45 mV-sigma population leaks ~1.5-3x the nominal cell."""
        multiplier = leakage_variability_multiplier(technology, 0.045)
        assert 1.2 < multiplier < 4.0
        # The 65 nm SRAM access device (1.3x minimum width) population
        # leaks tens of percent more than its nominal cell.
        access_sigma = vth_sigma(
            technology, 1.3 * technology.wmin, technology.lgate_drawn
        )
        assert 1.1 < leakage_variability_multiplier(
            technology, access_sigma
        ) < 5.0

    def test_rejects_negative_sigma(self, technology):
        with pytest.raises(DeviceModelError):
            leakage_variability_multiplier(technology, -0.01)


class TestHelpers:
    def test_percentile_shift(self):
        assert percentile_vth_shift(0.045, -3.0) == pytest.approx(-0.135)

    def test_population_leakage_scales_nominal(self, technology):
        nominal = 1e-9
        population = population_leakage(
            technology, nominal, technology.wmin, technology.lgate_drawn
        )
        sigma = vth_sigma(technology, technology.wmin, technology.lgate_drawn)
        assert population == pytest.approx(
            nominal * leakage_variability_multiplier(technology, sigma)
        )

    def test_population_rejects_negative_nominal(self, technology):
        with pytest.raises(DeviceModelError):
            population_leakage(technology, -1.0, 90e-9, 65e-9)

    def test_orderings_survive_variability(self, technology):
        """The paper's Vth orderings are variability-invariant: the
        multiplier is independent of nominal Vth, so scaling both sides
        of any leakage comparison preserves it."""
        from repro.devices.subthreshold import off_current_per_width

        low = off_current_per_width(
            technology, 0.25, technology.tox_ref, technology.leff
        )
        high = off_current_per_width(
            technology, 0.45, technology.tox_ref, technology.leff
        )
        low_pop = population_leakage(technology, low, 90e-9, 65e-9)
        high_pop = population_leakage(technology, high, 90e-9, 65e-9)
        assert (low_pop > high_pop) == (low > high)
        assert low_pop / high_pop == pytest.approx(low / high)
