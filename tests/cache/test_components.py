"""The four cache components: cost structure and scaling."""

import pytest

from repro import units
from repro.cache import components
from repro.cache.assignment import COMPONENT_NAMES
from repro.cache.cache_model import CacheModel
from repro.cache.components import MEMO_CAPACITY
from repro.cache.config import CacheConfig


def _fresh_model():
    return CacheModel(
        CacheConfig(size_bytes=16 * 1024, block_bytes=32, associativity=2)
    )


@pytest.fixture(scope="module")
def model():
    return _fresh_model()


class TestProtocol:
    @pytest.mark.parametrize("name", COMPONENT_NAMES)
    def test_costs_positive(self, model, name):
        cost = model.components[name].evaluate(
            0.3, model.technology.tox_ref
        )
        assert cost.delay > 0
        assert cost.leakage_power > 0
        assert cost.dynamic_energy > 0
        assert cost.transistor_count > 0

    @pytest.mark.parametrize("name", COMPONENT_NAMES)
    def test_memoized(self, model, name):
        component = model.components[name]
        first = component.evaluate(0.31, model.technology.tox_ref)
        second = component.evaluate(0.31, model.technology.tox_ref)
        assert first is second

    @pytest.mark.parametrize("name", ["array", "data_drivers"])
    def test_memo_is_bounded(self, name):
        """More distinct points than the cap leave at most the cap, and
        an evicted point re-evaluates to an equal cost."""
        model = _fresh_model()
        component = model.components[name]
        tox = model.technology.tox_ref
        vths = [0.2 + i * 1e-5 for i in range(MEMO_CAPACITY + 50)]
        first = component.evaluate(vths[0], tox)
        for vth in vths[1:]:
            component.evaluate(vth, tox)
        assert len(component._memo) == MEMO_CAPACITY
        assert (vths[0], tox) not in component._memo
        again = component.evaluate(vths[0], tox)
        assert again is not first
        assert again == first
        assert len(component._memo) == MEMO_CAPACITY

    @pytest.mark.parametrize("name", COMPONENT_NAMES)
    def test_memo_evicts_oldest_first(self, name, monkeypatch):
        monkeypatch.setattr(components, "MEMO_CAPACITY", 8)
        model = _fresh_model()
        component = model.components[name]
        tox = model.technology.tox_ref
        vths = [0.25 + i * 1e-3 for i in range(20)]
        costs = [component.evaluate(vth, tox) for vth in vths]
        assert list(component._memo) == [(vth, tox) for vth in vths[-8:]]
        # A kept point is served from the memo; an evicted one is
        # recomputed, equal to its first evaluation.
        assert component.evaluate(vths[-1], tox) is costs[-1]
        assert component.evaluate(vths[0], tox) == costs[0]
        assert len(component._memo) == 8

    @pytest.mark.parametrize("name", COMPONENT_NAMES)
    def test_accessor_shortcuts(self, model, name):
        component = model.components[name]
        tox = model.technology.tox_ref
        cost = component.evaluate(0.3, tox)
        assert component.delay(0.3, tox) == cost.delay
        assert component.leakage_power(0.3, tox) == cost.leakage_power
        assert component.dynamic_energy(0.3, tox) == cost.dynamic_energy


class TestArrayComponent:
    def test_array_dominates_leakage(self, model):
        """The cell population must be the leakage hog — the premise of
        the paper's 'high Vth/Tox to the cell array' conclusion."""
        tox = model.technology.tox_ref
        array = model.components["array"].leakage_power(0.3, tox)
        others = sum(
            model.components[name].leakage_power(0.3, tox)
            for name in COMPONENT_NAMES
            if name != "array"
        )
        assert array > others

    def test_leakage_scales_with_cells(self, technology):
        small = CacheModel(
            CacheConfig(size_bytes=8 * 1024, block_bytes=32, associativity=2),
            technology=technology,
        )
        large = CacheModel(
            CacheConfig(size_bytes=32 * 1024, block_bytes=32, associativity=2),
            technology=technology,
        )
        tox = technology.tox_ref
        ratio = large.components["array"].leakage_power(
            0.3, tox
        ) / small.components["array"].leakage_power(0.3, tox)
        # 4x the data bits; tags grow slightly sublinearly.
        assert 3.0 < ratio < 5.0

    def test_bitline_capacitance_positive(self, model):
        assert (
            model.components["array"].bitline_capacitance(
                model.technology.tox_ref
            )
            > 0
        )


class TestDecoderComponent:
    def test_replication_multiplies_leakage(self, model):
        """Decoder component leakage covers all sub-array decoders."""
        tox = model.technology.tox_ref
        component = model.components["decoder"]
        single = component._decoder_at(0.3, tox).evaluate(0.3, tox)
        total = component.evaluate(0.3, tox)
        expected = (
            single.leakage_current
            * model.technology.vdd
            * model.organization.n_decoders
        )
        assert total.leakage_power == pytest.approx(expected)

    def test_delay_is_single_decoder(self, model):
        tox = model.technology.tox_ref
        component = model.components["decoder"]
        single = component._decoder_at(0.3, tox).evaluate(0.3, tox)
        assert component.evaluate(0.3, tox).delay == pytest.approx(
            single.delay
        )


class TestBusComponents:
    def test_address_bus_width(self, model):
        assert (
            model.components["address_drivers"].n_lines
            == model.config.address_bits
        )

    def test_data_bus_width(self, model):
        assert (
            model.components["data_drivers"].n_lines
            == model.config.output_bits
        )

    def test_data_bus_outleaks_address_bus(self, model):
        """64 data lines vs 32 address lines at similar sizing."""
        tox = model.technology.tox_ref
        data = model.components["data_drivers"].leakage_power(0.3, tox)
        address = model.components["address_drivers"].leakage_power(0.3, tox)
        assert data > address


class TestToxGeometryCoupling:
    @pytest.mark.parametrize("name", COMPONENT_NAMES)
    def test_every_component_slower_at_thick_tox(self, model, name):
        component = model.components[name]
        assert component.delay(0.3, units.angstrom(14)) > component.delay(
            0.3, units.angstrom(10)
        )

    @pytest.mark.parametrize("name", COMPONENT_NAMES)
    def test_every_component_leakier_at_thin_tox(self, model, name):
        component = model.components[name]
        assert component.leakage_power(
            0.3, units.angstrom(10)
        ) > component.leakage_power(0.3, units.angstrom(14))
