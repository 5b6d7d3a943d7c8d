"""Technology parameter set: defaults, validation, derived quantities."""

import dataclasses
import math

import pytest

from repro import units
from repro.errors import TechnologyError
from repro.technology.bptm import (
    TOX_MAX_A,
    TOX_MIN_A,
    VTH_MAX,
    VTH_MIN,
    Technology,
    bptm65,
    check_design_box,
)


class TestDefaults:
    def test_bptm65_is_default_constructor(self, technology):
        assert bptm65() == Technology()

    def test_node_name(self, technology):
        assert technology.name == "bptm-65nm"

    def test_one_volt_supply(self, technology):
        assert technology.vdd == pytest.approx(1.0)

    def test_design_bounds_match_paper(self):
        assert (VTH_MIN, VTH_MAX) == (0.2, 0.5)
        assert (TOX_MIN_A, TOX_MAX_A) == (10.0, 14.0)

    def test_nominal_tox_inside_design_box(self, technology):
        tox_a = units.to_angstrom(technology.tox_ref)
        assert TOX_MIN_A <= tox_a <= TOX_MAX_A

    def test_frozen(self, technology):
        with pytest.raises(dataclasses.FrozenInstanceError):
            technology.vdd = 1.2


class TestDerived:
    def test_leff_below_drawn(self, technology):
        assert 0 < technology.leff < technology.lgate_drawn

    def test_thermal_voltage(self, technology):
        assert technology.thermal_voltage == pytest.approx(0.02585, abs=1e-4)

    def test_subthreshold_swing_realistic(self, technology):
        # 65 nm-era devices: ~80-100 mV/decade.
        assert 75.0 < technology.subthreshold_swing_mv_dec < 105.0

    def test_cox_inverse_in_thickness(self, technology):
        thin = technology.cox(units.angstrom(10))
        thick = technology.cox(units.angstrom(14))
        assert thin / thick == pytest.approx(1.4)

    def test_cox_rejects_nonpositive(self, technology):
        with pytest.raises(TechnologyError):
            technology.cox(0.0)

    def test_with_temperature(self, technology):
        hot = technology.with_temperature(383.0)
        assert hot.temperature == 383.0
        assert hot.thermal_voltage > technology.thermal_voltage
        assert technology.temperature == units.ROOM_TEMPERATURE


class TestValidation:
    def test_rejects_nonpositive_vdd(self):
        with pytest.raises(TechnologyError):
            Technology(vdd=0.0)

    def test_rejects_nonpositive_tox_ref(self):
        with pytest.raises(TechnologyError):
            Technology(tox_ref=-1e-10)

    def test_rejects_bad_leff_ratio(self):
        with pytest.raises(TechnologyError):
            Technology(leff_ratio=1.5)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(TechnologyError):
            Technology(temperature=0.0)

    def test_rejects_nonpositive_wmin(self):
        with pytest.raises(TechnologyError):
            Technology(wmin=0.0)

    # Vth and Tox are checked by the one design-box rule.
    def test_validate_vth_accepts_range(self, technology):
        check_design_box(technology, vths=(0.35,))

    @pytest.mark.parametrize("vth", [0.1, 0.6])
    def test_validate_vth_rejects_outside(self, technology, vth):
        with pytest.raises(TechnologyError):
            check_design_box(technology, vths=(vth,))

    def test_validate_tox_accepts_range(self, technology):
        check_design_box(technology, toxes_a=(12.0,))

    @pytest.mark.parametrize("tox_a", [9.0, 15.0])
    def test_validate_tox_rejects_outside(self, technology, tox_a):
        with pytest.raises(TechnologyError):
            check_design_box(technology, toxes_a=(tox_a,))


class TestCalibration:
    """Pin the node to published 65 nm-era figures of merit."""

    def test_gate_tunnel_decade_per_2a(self, technology):
        # The bare exponential (before the field-squared prefactor adds
        # its own Tox dependence) should drop roughly one decade per 2 A.
        drop = math.exp(-technology.gate_tunnel_b * units.angstrom(2))
        assert 0.03 < drop < 0.3

    def test_mobility_ordering(self, technology):
        assert technology.mobility_n > technology.mobility_p > 0

    def test_dibl_range(self, technology):
        assert 0.05 <= technology.dibl <= 0.25

    def test_cell_area_magnitude(self, technology):
        # 65 nm 6T cells were ~0.5-1.5 um^2.
        area_um2 = (
            technology.cell_height_ref * technology.cell_width_ref / 1e-12
        )
        assert 0.5 < area_um2 < 2.0
