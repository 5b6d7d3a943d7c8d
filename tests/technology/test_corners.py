"""Process/temperature corners."""

import pytest

from repro import units
from repro.cache.assignment import Assignment, knobs
from repro.cache.cache_model import CacheModel
from repro.cache.config import CacheConfig
from repro.errors import TechnologyError
from repro.optimize.schemes import Scheme
from repro.optimize.single_cache import minimize_leakage
from repro.technology.bptm import bptm65
from repro.technology.corners import (
    STANDARD_CORNERS,
    Corner,
    CornerName,
    apply_corner,
)
from repro.technology.scaling import ToxScalingRule


class TestCornerValidation:
    def test_rejects_nonpositive_mobility_scale(self):
        with pytest.raises(TechnologyError):
            Corner(name="bad", mobility_scale=0.0)

    def test_rejects_nonpositive_vdd_scale(self):
        with pytest.raises(TechnologyError):
            Corner(name="bad", vdd_scale=-1.0)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(TechnologyError):
            Corner(name="bad", temperature=0.0)


class TestStandardCorners:
    def test_all_five_present(self):
        assert set(STANDARD_CORNERS) == set(CornerName)

    def test_typical_is_identity_shift(self):
        typical = STANDARD_CORNERS[CornerName.TYPICAL]
        assert typical.vth_shift == 0.0
        assert typical.mobility_scale == 1.0
        assert typical.vdd_scale == 1.0

    def test_fast_is_leakier_direction(self):
        fast = STANDARD_CORNERS[CornerName.FAST]
        assert fast.vth_shift < 0
        assert fast.mobility_scale > 1
        assert fast.vdd_scale > 1

    def test_hot_corner_is_hot(self):
        assert STANDARD_CORNERS[CornerName.FAST_HOT].temperature > 350


class TestApplyCorner:
    def test_typical_preserves_parameters(self, technology):
        derived = apply_corner(
            technology, STANDARD_CORNERS[CornerName.TYPICAL]
        )
        assert derived.vth_ref == technology.vth_ref
        assert derived.vdd == technology.vdd
        assert derived.mobility_n == technology.mobility_n

    def test_fast_corner_shifts(self, technology):
        derived = apply_corner(technology, STANDARD_CORNERS[CornerName.FAST])
        assert derived.vth_ref < technology.vth_ref
        assert derived.vdd > technology.vdd
        assert derived.mobility_n > technology.mobility_n

    def test_name_records_corner(self, technology):
        derived = apply_corner(technology, STANDARD_CORNERS[CornerName.SLOW])
        assert derived.name.endswith("@ss")

    def test_original_untouched(self, technology):
        before = technology.vth_ref
        apply_corner(technology, STANDARD_CORNERS[CornerName.FAST])
        assert technology.vth_ref == before

    def test_corner_changes_leakage(self, technology):
        """A fast-hot corner must leak more than typical silicon."""
        from repro.devices.subthreshold import off_current_per_width

        hot = apply_corner(technology, STANDARD_CORNERS[CornerName.FAST_HOT])
        typical_ioff = off_current_per_width(
            technology, vth=0.3, tox=technology.tox_ref, leff=technology.leff
        )
        hot_ioff = off_current_per_width(
            hot, vth=0.3, tox=hot.tox_ref, leff=hot.leff
        )
        assert hot_ioff > 3 * typical_ioff


class TestE11CornerRobustness:
    """E11: the Section 4 Scheme II optimum of the 16 KB cache
    re-evaluated at every standard corner."""

    @pytest.fixture(scope="class")
    def config(self):
        return CacheConfig(
            size_bytes=16 * 1024, block_bytes=32, associativity=2, name="L1"
        )

    @staticmethod
    def _at_corner(base, corner_name):
        technology = apply_corner(
            base.technology, STANDARD_CORNERS[corner_name]
        )
        return CacheModel(
            base.config,
            technology=technology,
            rule=ToxScalingRule(technology=technology),
            organization=base.organization,
        )

    @pytest.fixture(scope="class")
    def optimum_leakage(self, config):
        model = CacheModel(config, technology=bptm65())
        optimum = minimize_leakage(
            model, Scheme.CELL_VS_PERIPHERY, units.ps(1300)
        )
        return {
            name: self._at_corner(model, name)
            .evaluate(optimum.assignment)
            .leakage_power
            for name in STANDARD_CORNERS
        }

    def test_fast_hot_blows_the_budget_within_bounds(self, optimum_leakage):
        # Fast-hot silicon blows the typical budget — but only a few x,
        # because the optimum is gate-tunnelling floored and tunnelling
        # is nearly temperature-insensitive.
        typical = optimum_leakage[CornerName.TYPICAL]
        assert 1.5 * typical < optimum_leakage[CornerName.FAST_HOT]
        assert optimum_leakage[CornerName.FAST_HOT] < 20 * typical

    def test_slow_cold_leaks_less(self, optimum_leakage):
        assert (
            optimum_leakage[CornerName.SLOW_COLD]
            < optimum_leakage[CornerName.TYPICAL]
        )

    def test_subthreshold_dominated_design_is_more_sensitive(
        self, config, optimum_leakage
    ):
        """Total-leakage optimisation buys corner robustness: a low-Vth
        design blows up more at fast-hot than the optimum does."""
        low_vth = Assignment.uniform(knobs(0.2, 14))
        base = CacheModel(config, technology=bptm65())
        hot = self._at_corner(base, CornerName.FAST_HOT)
        sub_ratio = hot.leakage_power(low_vth) / base.leakage_power(low_vth)
        optimum_ratio = (
            optimum_leakage[CornerName.FAST_HOT]
            / optimum_leakage[CornerName.TYPICAL]
        )
        assert sub_ratio > optimum_ratio
