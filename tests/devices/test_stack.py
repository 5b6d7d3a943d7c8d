"""Series-stack leakage suppression."""

import numpy as np
import pytest

from repro import units
from repro.cache.cache_model import CacheModel
from repro.cache.config import l1_config, l2_config
from repro.errors import DeviceModelError
from repro.devices.stack import (
    deeper_stack_factor,
    solve_intermediate_node,
    two_stack_factor,
)
from repro.experiments.figure2 import fast_space
from repro.optimize.space import default_space
from repro.technology.nodes import NODES, SCALING_STYLES, node_technology


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


def _lane_wise(technology, vth, tox, leff, monkeypatch):
    """The oracle: every lane bisected on its own, the solve's fallback."""
    from repro.devices import stack

    with monkeypatch.context() as patch:
        patch.setattr(stack, "_lanes_follow", lambda *args: False)
        return solve_intermediate_node(technology, vth, tox, leff)


def _count_lane_wise(monkeypatch):
    from repro.devices import stack

    calls = []
    lane_wise = stack._lane_wise

    def counted(*args):
        calls.append(1)
        return lane_wise(*args)

    monkeypatch.setattr(stack, "_lane_wise", counted)
    return calls


class TestSharedPath:
    """Every lane of an E9 grid follows one bisection path; the solve
    checks that and otherwise bisects lane by lane."""

    @pytest.mark.parametrize("style", SCALING_STYLES)
    @pytest.mark.parametrize("node", NODES)
    def test_e9_grids_equal_the_lane_wise_loop(self, node, style,
                                               monkeypatch):
        technology = node_technology(node, style)
        for space in (default_space(technology=technology),
                      fast_space(technology)):
            vths = np.asarray(space.vth_values, dtype=float)[:, None]
            toxes = units.angstrom(
                np.asarray(space.tox_values_angstrom))[None, :]
            for config in (l1_config(16), l2_config(1024)):
                block = CacheModel(config, technology=technology)
                leff = block.components["decoder"].rule.geometry(toxes).leff
                want = _lane_wise(technology, vths, toxes, leff, monkeypatch)
                calls = _count_lane_wise(monkeypatch)
                got = solve_intermediate_node(technology, vths, toxes, leff)
                assert calls == []  # the shared path answered
                assert np.array_equal(got, want)

    def test_disagreeing_lane_falls_back(self, technology, monkeypatch):
        """Swap the followed lane's currents: its path then leads the
        wrong way, the check catches it and every lane is bisected on
        its own."""
        from repro.devices import stack

        vths = np.linspace(0.2, 0.5, 7)[:, None]
        toxes = units.angstrom(np.array([10.0, 12.0, 14.0]))[None, :]
        leff = technology.leff * np.array([[0.9, 1.0, 1.1]])
        want = _lane_wise(technology, vths, toxes, leff, monkeypatch)
        currents = stack._stack2_current

        def swapped(*args):
            i_top, i_bottom = currents(*args)
            if isinstance(args[-1], np.ndarray):
                return i_top, i_bottom
            return i_bottom, i_top

        monkeypatch.setattr(stack, "_stack2_current", swapped)
        calls = _count_lane_wise(monkeypatch)
        got = solve_intermediate_node(technology, vths, toxes, leff)
        assert calls == [1]
        assert np.array_equal(got, want)

    def test_checks_in_blocks(self, technology, monkeypatch):
        """A grid too large for one check block checks in several and
        gives the same answer."""
        from repro.devices import stack

        vths = np.linspace(0.2, 0.5, 13)[:, None]
        toxes = units.angstrom(np.linspace(10.0, 14.0, 9))[None, :]
        leff = technology.leff * toxes / technology.tox_ref
        whole = solve_intermediate_node(technology, vths, toxes, leff)
        monkeypatch.setattr(stack, "_CHECK_BLOCK_ELEMENTS", vths.size * 5)
        calls = _count_lane_wise(monkeypatch)
        assert np.array_equal(
            solve_intermediate_node(technology, vths, toxes, leff), whole
        )
        assert calls == []
