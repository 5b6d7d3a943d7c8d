"""Series-stack leakage suppression."""

import numpy as np
import pytest

from repro import units
from repro.errors import DeviceModelError
from repro.devices.stack import (
    deeper_stack_factor,
    solve_intermediate_node,
    two_stack_factor,
)


class TestIntermediateNode:
    def test_settles_at_small_positive_voltage(self, technology):
        vx = solve_intermediate_node(
            technology, vth=0.3, tox=technology.tox_ref, leff=technology.leff
        )
        assert 0.005 < vx < 0.2

    def test_currents_balance_at_solution(self, technology):
        from repro.devices.stack import _stack2_current

        vx = solve_intermediate_node(
            technology, 0.3, technology.tox_ref, technology.leff
        )
        i_top, i_bottom = _stack2_current(
            technology, 0.3, technology.tox_ref, technology.leff, vx
        )
        assert i_top == pytest.approx(i_bottom, rel=1e-3)


class TestBroadcast:
    def test_grid_solve_equals_scalar_solves_bit_for_bit(self, technology):
        # (vth, tox, leff) on three broadcast axes.
        vth = np.linspace(0.15, 0.5, 6)[:, None, None]
        tox = units.angstrom(np.array([10.0, 12.0, 14.0, 17.0]))[None, :, None]
        leff = technology.leff * np.array([0.8, 1.0, 1.3])[None, None, :]
        grid = solve_intermediate_node(technology, vth, tox, leff)
        assert grid.shape == (6, 4, 3)
        for (i, j, k), vx in np.ndenumerate(grid):
            assert vx == solve_intermediate_node(
                technology,
                float(vth[i, 0, 0]),
                float(tox[0, j, 0]),
                float(leff[0, 0, k]),
            )

    def test_array_leff_with_scalar_knobs(self, technology):
        leffs = technology.leff * np.array([0.9, 1.0, 1.2])
        vx = solve_intermediate_node(
            technology, 0.3, technology.tox_ref, leffs
        )
        assert vx.shape == (3,)
        for lane, leff in enumerate(leffs):
            assert vx[lane] == solve_intermediate_node(
                technology, 0.3, technology.tox_ref, float(leff)
            )
        factors = two_stack_factor(technology, 0.3, technology.tox_ref, leffs)
        assert factors.shape == (3,)

    def test_grid_factor_equals_per_column_factors(self, technology):
        """One grid-wide factor is what the decoder's Tox columns used to
        solve one at a time (a Vth vector at scalar Tox and Leff)."""
        vths = np.linspace(0.15, 0.5, 6)
        toxes = units.angstrom(np.array([10.0, 12.0, 14.0, 17.0]))
        leffs = technology.leff * np.array([0.8, 1.0, 1.1, 1.3])
        grid = two_stack_factor(
            technology, vths[:, None], toxes[None, :], leffs[None, :]
        )
        for j in range(toxes.size):
            column = two_stack_factor(
                technology, vths, float(toxes[j]), float(leffs[j])
            )
            assert np.array_equal(grid[:, j], column)


class TestFactor:
    @staticmethod
    def _factor2(technology, vth=0.3):
        return two_stack_factor(
            technology, vth, technology.tox_ref, technology.leff
        )

    def test_two_stack_suppresses_order_of_magnitude(self, technology):
        assert 0.005 < self._factor2(technology) < 0.25

    def test_depth_one_is_identity(self, technology):
        assert deeper_stack_factor(self._factor2(technology), 1) == 1.0

    def test_deeper_stacks_leak_less(self, technology):
        factor2 = self._factor2(technology)
        factors = [
            deeper_stack_factor(factor2, depth) for depth in (1, 2, 3, 4)
        ]
        assert factors == sorted(factors, reverse=True)
        assert all(f > 0 for f in factors)

    def test_rejects_zero_depth(self):
        for depth in (0, -1):
            with pytest.raises(DeviceModelError):
                deeper_stack_factor(0.1, depth)

    def test_depth_rule_scales_the_two_stack_factor(self, technology):
        factor2 = self._factor2(technology)
        assert deeper_stack_factor(factor2, 2) == factor2
        for depth in (3, 4):
            assert deeper_stack_factor(factor2, depth) == (
                factor2 * 0.5 ** (depth - 2)
            )

    def test_factor_independent_of_width_by_construction(self, technology):
        """Both stacked devices share the width, so the factor is a pure
        ratio; evaluate at two Vth values to confirm it stays in range."""
        for vth in (0.2, 0.5):
            assert 0.001 < self._factor2(technology, vth) < 0.5
