"""Whole-cache model: additivity, monotonicity, ablation switches."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.cache.assignment import Assignment, knobs
from repro.cache.cache_model import CacheModel
from repro.cache.config import CacheConfig
from repro.errors import ConfigurationError
from repro.technology.bptm import bptm65


class TestAdditivity:
    def test_access_time_is_component_sum(self, l1_16k):
        evaluation = l1_16k.uniform(knobs(0.3, 12))
        assert evaluation.access_time == pytest.approx(
            sum(c.delay for c in evaluation.by_component.values())
        )

    def test_leakage_is_component_sum(self, l1_16k):
        evaluation = l1_16k.uniform(knobs(0.3, 12))
        assert evaluation.leakage_power == pytest.approx(
            sum(c.leakage_power for c in evaluation.by_component.values())
        )

    def test_mixed_assignment_composes(self, l1_16k):
        """Scheme II evaluation must equal per-component evaluations."""
        cell, periph = knobs(0.5, 14), knobs(0.2, 10)
        assignment = Assignment.split(cell=cell, periphery=periph)
        evaluation = l1_16k.evaluate(assignment)
        array_cost = l1_16k.components["array"].evaluate(cell.vth, cell.tox)
        assert evaluation.by_component["array"].delay == array_cost.delay


class TestMonotonicity:
    @settings(max_examples=15, deadline=None)
    @given(vth=st.floats(min_value=0.2, max_value=0.47))
    def test_access_time_increases_with_vth(self, l1_16k, vth):
        fast = l1_16k.uniform(knobs(vth, 12)).access_time
        slow = l1_16k.uniform(knobs(vth + 0.03, 12)).access_time
        assert slow > fast

    @settings(max_examples=15, deadline=None)
    @given(vth=st.floats(min_value=0.2, max_value=0.47))
    def test_leakage_decreases_with_vth(self, l1_16k, vth):
        leaky = l1_16k.uniform(knobs(vth, 12)).leakage_power
        quiet = l1_16k.uniform(knobs(vth + 0.03, 12)).leakage_power
        assert quiet < leaky

    @settings(max_examples=10, deadline=None)
    @given(tox=st.floats(min_value=10.0, max_value=13.5))
    def test_leakage_decreases_with_tox(self, l1_16k, tox):
        thin = l1_16k.uniform(knobs(0.3, tox)).leakage_power
        thick = l1_16k.uniform(knobs(0.3, tox + 0.5)).leakage_power
        assert thick < thin

    def test_corner_ordering(self, l1_16k):
        """Fastest corner must be leakiest; slowest must be quietest."""
        fastest = l1_16k.uniform(knobs(0.2, 10))
        slowest = l1_16k.uniform(knobs(0.5, 14))
        assert fastest.access_time < slowest.access_time
        assert fastest.leakage_power > slowest.leakage_power


class TestCalibration:
    """Pin the 16 KB cache to the paper's Figure 1 axes."""

    def test_access_time_band(self, l1_16k):
        fastest = l1_16k.uniform(knobs(0.2, 10)).access_time
        slowest = l1_16k.uniform(knobs(0.5, 14)).access_time
        assert units.ps(400) < fastest < units.ps(1100)
        assert units.ps(1200) < slowest < units.ps(2600)

    def test_leakage_band(self, l1_16k):
        leakiest = l1_16k.uniform(knobs(0.2, 10)).leakage_power
        quietest = l1_16k.uniform(knobs(0.5, 14)).leakage_power
        assert units.mw(5) < leakiest < units.mw(80)
        assert quietest < units.mw(1)


class TestStructure:
    def test_four_components(self, l1_16k):
        assert set(l1_16k.components) == {
            "address_drivers",
            "decoder",
            "array",
            "data_drivers",
        }

    def test_area_positive_and_grows_with_tox(self, l1_16k):
        thin = l1_16k.area(units.angstrom(10))
        thick = l1_16k.area(units.angstrom(14))
        assert 0 < thin < thick
        # The silicon price of conservative Tox: sub-linear coupling
        # (exponent 0.6) grows the cell ~(1.4^0.6)^2 = ~1.5x, 10 -> 14 A.
        assert 1.2 < thick / thin < 2.2

    def test_area_defaults_to_reference(self, l1_16k):
        assert l1_16k.area() == pytest.approx(
            l1_16k.area(l1_16k.technology.tox_ref)
        )

    def test_describe(self, l1_16k):
        text = l1_16k.describe()
        assert "sub-arrays" in text and "components" in text

    def test_transistor_count_dominated_by_cells(self, l1_16k):
        evaluation = l1_16k.uniform(knobs(0.3, 12))
        cells = l1_16k.organization.total_cells
        assert evaluation.transistor_count > 6 * cells

    def test_rejects_mismatched_rule(self):
        from repro.technology.scaling import ToxScalingRule

        tech_a, tech_b = bptm65(), bptm65()
        with pytest.raises(ConfigurationError):
            CacheModel(
                CacheConfig(size_bytes=4 * 1024),
                technology=tech_a,
                rule=ToxScalingRule(technology=tech_b),
            )


class TestAblations:
    def test_gate_disabled_lowers_leakage(self, technology):
        config = CacheConfig(
            size_bytes=4 * 1024, block_bytes=32, associativity=2
        )
        full = CacheModel(config, technology=technology)
        sub_only = CacheModel(
            config, technology=technology, gate_enabled=False
        )
        point = knobs(0.5, 10)  # gate-dominated corner
        assert (
            sub_only.uniform(point).leakage_power
            < 0.3 * full.uniform(point).leakage_power
        )

    def test_gate_disabled_misranks_thin_oxide(self, technology):
        """The pre-2005 'subthreshold only' mode misses the thin-oxide
        floor entirely — the paper's motivation for total leakage."""
        config = CacheConfig(
            size_bytes=4 * 1024, block_bytes=32, associativity=2
        )
        sub_only = CacheModel(
            config, technology=technology, gate_enabled=False
        )
        thin = sub_only.uniform(knobs(0.5, 10)).leakage_power
        thick = sub_only.uniform(knobs(0.5, 14)).leakage_power
        # Without gate leakage the model thinks thin oxide barely matters.
        assert thin < 3 * thick

    def test_flags_recorded(self, technology):
        config = CacheConfig(size_bytes=4 * 1024)
        model = CacheModel(
            config,
            technology=technology,
            stack_enabled=False,
            gate_enabled=False,
        )
        assert model.stack_enabled is False
        assert model.gate_enabled is False


class TestWritePath:
    def test_write_energy_positive(self, l1_16k):
        from repro.cache.assignment import Assignment

        assignment = Assignment.uniform(knobs(0.3, 12))
        assert l1_16k.dynamic_write_energy(assignment) > 0

    def test_write_costs_more_than_read(self, l1_16k):
        """Full-rail bit-line drive must exceed small-swing sensing."""
        from repro.cache.assignment import Assignment

        assignment = Assignment.uniform(knobs(0.3, 12))
        write = l1_16k.dynamic_write_energy(assignment)
        read = l1_16k.dynamic_read_energy(assignment)
        assert write > read

    def test_write_energy_grows_with_tox(self, l1_16k):
        from repro.cache.assignment import Assignment

        thin = l1_16k.dynamic_write_energy(
            Assignment.uniform(knobs(0.3, 10))
        )
        thick = l1_16k.dynamic_write_energy(
            Assignment.uniform(knobs(0.3, 14))
        )
        assert thick > thin

    def test_component_write_energy_scales_with_columns(self, technology):
        small = CacheModel(
            CacheConfig(size_bytes=4 * 1024, block_bytes=32, associativity=2),
            technology=technology,
        )
        tox = technology.tox_ref
        array = small.components["array"]
        assert array.write_energy(0.3, tox) > 0
