"""The Mosfet value object."""

import pytest

from repro import units
from repro.errors import DeviceModelError
from repro.devices.mosfet import Mosfet, Polarity


def make_nmos(technology, vth=0.3, tox=None, width=1.3e-7):
    return Mosfet(
        polarity=Polarity.NMOS,
        width=width,
        lgate=technology.lgate_drawn,
        leff=technology.leff,
        vth=vth,
        tox=tox if tox is not None else technology.tox_ref,
    )


def make_pmos(technology, vth=0.3, width=1.3e-7):
    return Mosfet(
        polarity=Polarity.PMOS,
        width=width,
        lgate=technology.lgate_drawn,
        leff=technology.leff,
        vth=vth,
        tox=technology.tox_ref,
    )


class TestConstruction:
    def test_rejects_nonpositive_width(self, technology):
        with pytest.raises(DeviceModelError):
            make_nmos(technology, width=0.0)

    def test_rejects_leff_above_drawn(self, technology):
        with pytest.raises(DeviceModelError):
            Mosfet(
                polarity=Polarity.NMOS,
                width=1e-7,
                lgate=3e-8,
                leff=6e-8,
                vth=0.3,
                tox=technology.tox_ref,
            )

    def test_rejects_nonpositive_vth(self, technology):
        with pytest.raises(DeviceModelError):
            make_nmos(technology, vth=0.0)

    def test_is_pmos(self, technology):
        assert make_pmos(technology).is_pmos
        assert not make_nmos(technology).is_pmos

    def test_with_knobs_changes_only_knobs(self, technology):
        device = make_nmos(technology)
        retuned = device.with_knobs(vth=0.45, tox=units.angstrom(14))
        assert retuned.vth == 0.45
        assert retuned.tox == units.angstrom(14)
        assert retuned.width == device.width
        assert device.vth == 0.3  # original untouched

    def test_with_knobs_partial(self, technology):
        device = make_nmos(technology)
        assert device.with_knobs(vth=0.4).tox == device.tox


class TestLeakage:
    def test_off_subthreshold_positive(self, technology):
        assert make_nmos(technology).off_subthreshold(technology) > 0

    def test_gate_leak_ablation_flag(self, technology):
        device = make_nmos(technology)
        assert device.gate_leakage(
            technology, conducting=True, gate_enabled=False
        ) == 0.0
        assert device.gate_leakage(technology, conducting=True) > 0

    def test_on_device_has_no_subthreshold(self, technology):
        """Total leakage of a conducting device is gate-only."""
        device = make_nmos(technology)
        total_on = device.total_standby_leakage(technology, conducting=True)
        assert total_on == pytest.approx(
            device.gate_leakage(technology, conducting=True)
        )

    def test_off_device_sums_both(self, technology):
        device = make_nmos(technology)
        total = device.total_standby_leakage(technology, conducting=False)
        expected = device.off_subthreshold(technology) + device.gate_leakage(
            technology, conducting=False
        )
        assert total == pytest.approx(expected)

    def test_pmos_leaks_less_than_nmos(self, technology):
        nmos = make_nmos(technology).total_standby_leakage(
            technology, conducting=False
        )
        pmos = make_pmos(technology).total_standby_leakage(
            technology, conducting=False
        )
        assert pmos < nmos


class TestDrive:
    def test_on_current_positive(self, technology):
        assert make_nmos(technology).on_current(technology) > 0

    def test_resistance_times_current(self, technology):
        device = make_nmos(technology)
        product = device.resistance(technology) * device.on_current(technology)
        assert product == pytest.approx(2.6 * technology.vdd)

    def test_capacitances_positive(self, technology):
        device = make_nmos(technology)
        assert device.input_capacitance(technology) > 0
        assert device.drain_capacitance(technology) > 0
