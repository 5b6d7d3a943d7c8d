"""Per-reference dynamic energy composition."""

import pytest

from repro.energy.dynamic import DynamicEnergyModel, MainMemoryModel
from repro.errors import ConfigurationError


class TestMainMemory:
    def test_defaults_2005_era(self):
        memory = MainMemoryModel()
        assert 5e-9 < memory.latency < 1e-7
        assert 0 < memory.energy_per_access < 1e-8

    def test_rejects_nonpositive_latency(self):
        with pytest.raises(ConfigurationError):
            MainMemoryModel(latency=0.0)

    def test_rejects_negative_energy(self):
        with pytest.raises(ConfigurationError):
            MainMemoryModel(energy_per_access=-1.0)

    @pytest.mark.parametrize("field", ["latency", "energy_per_access"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ConfigurationError, match="finite"):
            MainMemoryModel(**{field: value})


class TestComposition:
    @pytest.fixture
    def model(self):
        return DynamicEnergyModel(
            l1_access_energy=10e-12,
            l2_access_energy=100e-12,
            memory=MainMemoryModel(latency=20e-9, energy_per_access=1e-9),
            fill_factor=1.0,
        )

    def test_all_hits_is_l1_only(self, model):
        assert model.energy_per_reference(0.0, 0.0) == pytest.approx(10e-12)

    def test_hand_computed_with_misses(self, model):
        # E = L1 + m1 (L2 + fill_L1 + m2 (mem + fill_L2))
        expected = 10e-12 + 0.1 * (
            100e-12 + 10e-12 + 0.5 * (1e-9 + 100e-12)
        )
        assert model.energy_per_reference(0.1, 0.5) == pytest.approx(expected)

    def test_fill_factor_zero(self):
        model = DynamicEnergyModel(
            l1_access_energy=10e-12,
            l2_access_energy=100e-12,
            memory=MainMemoryModel(latency=20e-9, energy_per_access=1e-9),
            fill_factor=0.0,
        )
        expected = 10e-12 + 0.1 * (100e-12 + 0.5 * 1e-9)
        assert model.energy_per_reference(0.1, 0.5) == pytest.approx(expected)

    def test_monotone_in_miss_rates(self, model):
        base = model.energy_per_reference(0.05, 0.4)
        assert model.energy_per_reference(0.10, 0.4) > base
        assert model.energy_per_reference(0.05, 0.6) > base

    def test_rejects_bad_miss_rate(self, model):
        with pytest.raises(ConfigurationError):
            model.energy_per_reference(1.5, 0.5)

    def test_rejects_negative_energy(self):
        with pytest.raises(ConfigurationError):
            DynamicEnergyModel(
                l1_access_energy=-1.0, l2_access_energy=1e-12
            )

    def test_rejects_negative_fill_factor(self):
        with pytest.raises(ConfigurationError):
            DynamicEnergyModel(
                l1_access_energy=1e-12,
                l2_access_energy=1e-12,
                fill_factor=-0.5,
            )

    @pytest.mark.parametrize(
        "field", ["l1_access_energy", "l2_access_energy", "fill_factor"]
    )
    def test_rejects_nan(self, field):
        values = dict(l1_access_energy=1e-12, l2_access_energy=1e-12)
        values[field] = float("nan")
        with pytest.raises(ConfigurationError, match=field):
            DynamicEnergyModel(**values)
