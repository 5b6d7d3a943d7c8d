"""Design-space grids."""

import pytest

from repro import units
from repro.errors import OptimizationError
from repro.optimize.space import DesignSpace, coarse_space, default_space
from repro.technology.bptm import check_design_box
from repro.technology.nodes import NODES, SCALING_STYLES, node_technology


class TestDefaults:
    def test_default_density(self):
        space = default_space()
        assert len(space.vth_values) == 13  # 25 mV steps
        assert len(space.tox_values_angstrom) == 9  # 0.5 A steps
        assert space.n_points == 117

    def test_default_spans_design_box(self):
        space = default_space()
        assert space.vth_values[0] == pytest.approx(0.2)
        assert space.vth_values[-1] == pytest.approx(0.5)
        assert space.tox_values_angstrom[0] == pytest.approx(10.0)
        assert space.tox_values_angstrom[-1] == pytest.approx(14.0)

    def test_coarse_is_smaller(self):
        assert coarse_space().n_points < default_space().n_points

    def test_custom_steps(self):
        space = default_space(vth_step=0.1, tox_step=2.0)
        assert len(space.vth_values) == 4
        assert len(space.tox_values_angstrom) == 3


class TestPoints:
    def test_iteration_order_vth_major(self, tiny_space):
        points = tiny_space.point_list()
        assert points[0].vth == 0.2
        assert points[0].tox_angstrom == pytest.approx(10.0)
        assert points[1].vth == 0.2
        assert points[1].tox_angstrom == pytest.approx(12.0)
        assert points[3].vth == 0.35

    def test_point_count(self, tiny_space):
        assert len(tiny_space.point_list()) == tiny_space.n_points == 9

    def test_points_carry_si_tox(self, tiny_space):
        for point in tiny_space.points():
            assert point.tox < 1e-8  # metres, not angstroms

    def test_describe(self, tiny_space):
        assert "9 points" in tiny_space.describe()


class TestValidation:
    def test_rejects_empty_axis(self):
        with pytest.raises(OptimizationError):
            DesignSpace(vth_values=(), tox_values_angstrom=(10.0,))

    def test_rejects_unsorted_axis(self):
        with pytest.raises(OptimizationError):
            DesignSpace(
                vth_values=(0.3, 0.2), tox_values_angstrom=(10.0, 12.0)
            )

    def test_rejects_out_of_range_vth(self):
        with pytest.raises(OptimizationError):
            DesignSpace(vth_values=(0.1,), tox_values_angstrom=(12.0,))

    def test_rejects_out_of_range_tox(self):
        with pytest.raises(OptimizationError):
            DesignSpace(vth_values=(0.3,), tox_values_angstrom=(16.0,))

    def test_default_grids_fit_every_node_box(self):
        """All 476 default/coarse axis values pass the one box rule."""
        checked = 0
        for node in NODES:
            for style in SCALING_STYLES:
                technology = node_technology(node, style)
                for space in (default_space(technology=technology),
                              coarse_space(technology=technology)):
                    check_design_box(technology, space.vth_values,
                                     space.tox_values_angstrom)
                    checked += (len(space.vth_values)
                                + len(space.tox_values_angstrom))
        assert checked == 476

