"""Tox co-scaling rule (Section 2)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import units
from repro.errors import TechnologyError
from repro.technology import scaling
from repro.technology.scaling import ScaledGeometry, ToxScalingRule


class TestLengthScale:
    def test_identity_at_reference(self, rule, technology):
        assert rule.length_scale(technology.tox_ref) == pytest.approx(1.0)

    def test_thicker_oxide_longer_channel(self, rule, technology):
        assert rule.length_scale(units.angstrom(14)) > 1.0
        assert rule.length_scale(units.angstrom(10)) < 1.0

    @given(st.floats(min_value=10.0, max_value=14.0))
    def test_monotone_in_tox(self, rule, tox_a):
        scale = rule.length_scale(units.angstrom(tox_a))
        scale_thicker = rule.length_scale(units.angstrom(tox_a + 0.1))
        assert scale_thicker > scale

    def test_rejects_nonpositive_tox(self, rule):
        with pytest.raises(TechnologyError):
            rule.length_scale(0.0)

    def test_exponent_zero_disables_coupling(self, technology):
        flat = ToxScalingRule(technology=technology, length_exponent=0.0)
        assert flat.length_scale(units.angstrom(10)) == pytest.approx(1.0)
        assert flat.length_scale(units.angstrom(14)) == pytest.approx(1.0)


class TestGeometry:
    def test_reference_geometry_matches_node(self, rule, technology):
        geometry = rule.geometry(technology.tox_ref)
        assert geometry.lgate_drawn == pytest.approx(technology.lgate_drawn)
        assert geometry.leff == pytest.approx(technology.leff)
        assert geometry.cell_height == pytest.approx(
            technology.cell_height_ref
        )
        assert geometry.cell_width == pytest.approx(technology.cell_width_ref)
        assert geometry.width_scale == pytest.approx(1.0)

    def test_leff_tracks_drawn(self, rule, technology):
        geometry = rule.geometry(units.angstrom(14))
        assert geometry.leff == pytest.approx(
            geometry.lgate_drawn * technology.leff_ratio
        )

    def test_cell_grows_in_both_dimensions(self, rule, technology):
        thin = rule.geometry(units.angstrom(10))
        thick = rule.geometry(units.angstrom(14))
        assert thick.cell_height > thin.cell_height
        assert thick.cell_width > thin.cell_width

    def test_area_is_square_of_length_scale(self, rule, technology):
        # Section 2: "the cell will grow in both horizontal and vertical
        # dimensions" -> area goes as the length scale squared.
        tox = units.angstrom(14)
        scale = rule.length_scale(tox)
        assert rule.cell_area(tox) == pytest.approx(
            technology.cell_height_ref
            * technology.cell_width_ref
            * scale**2
        )

    def test_scaled_geometry_area_property(self):
        geometry = ScaledGeometry(
            tox=1e-9,
            lgate_drawn=60e-9,
            leff=33e-9,
            width_scale=1.0,
            cell_height=1e-6,
            cell_width=2e-6,
        )
        assert geometry.cell_area == pytest.approx(2e-12)


class TestWidthCoupling:
    def test_width_scale_equals_length_scale(self, rule):
        # The paper scales cell widths proportionately with drawn length.
        tox = units.angstrom(13)
        assert rule.geometry(tox).width_scale == pytest.approx(
            rule.length_scale(tox)
        )


LENGTHS = ("tox", "lgate_drawn", "leff", "width_scale", "cell_height",
           "cell_width")


class TestGeometryMemo:
    """Each distinct Tox or Tox row is computed once per rule, and the
    served geometry is the one a fresh rule computes, bit for bit."""

    def test_scalar_served_once_and_identical(self, technology):
        rule = ToxScalingRule(technology=technology)
        tox = units.angstrom(12.5)
        first = rule.geometry(tox)
        assert rule.geometry(tox) is first
        assert first == ToxScalingRule(technology=technology).geometry(tox)

    def test_row_is_read_only_copy_matching_scalars(self, technology):
        rule = ToxScalingRule(technology=technology)
        row = np.array([[units.angstrom(a) for a in (10.0, 11.5, 14.0)]])
        geometry = rule.geometry(row)
        assert rule.geometry(row.copy()) is geometry
        for name in LENGTHS:
            value = getattr(geometry, name)
            assert not value.flags.writeable
            scalars = [getattr(rule.geometry(tox), name)
                       for tox in row.ravel().tolist()]
            assert np.array_equal(value.ravel(), scalars)
        row[0, 0] = units.angstrom(12.0)
        assert geometry.tox[0, 0] == units.angstrom(10.0)
        assert rule.geometry(row) is not geometry

    def test_value_types_kept_apart(self, technology):
        rule = ToxScalingRule(technology=technology)
        tox = units.angstrom(13.0)
        assert type(rule.geometry(np.float64(tox)).tox) is np.float64
        assert type(rule.geometry(tox).tox) is float

    def test_memo_is_bounded(self, technology):
        rule = ToxScalingRule(technology=technology)
        toxes = [units.angstrom(10.0 + 0.01 * i)
                 for i in range(scaling.GEOMETRY_CAPACITY + 1)]
        first = rule.geometry(toxes[0])
        for tox in toxes[1:]:
            rule.geometry(tox)
        assert len(rule._geometries) == scaling.GEOMETRY_CAPACITY
        assert rule.geometry(toxes[0]) is not first
        assert rule.geometry(toxes[0]) == first

    def test_memo_outside_equality_and_repr(self, technology):
        used = ToxScalingRule(technology=technology)
        used.geometry(units.angstrom(12.0))
        fresh = ToxScalingRule(technology=technology)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert [f.name for f in dataclasses.fields(used)] == [
            "technology", "length_exponent"]
