"""The batch evaluate_grid API must agree with scalar evaluate exactly.

Acceptance bar: every grid element within 1e-9 relative tolerance of the
point-by-point scalar evaluation, for all four structural components and
for the fitted (analytical) components.
"""

import numpy as np

from repro import units
from repro.cache.cache_model import CacheModel

RTOL = 1e-9


def _assert_grid_matches_scalar(block, vths, toxes):
    delays, leakages, energies = block.evaluate_grid(vths, toxes)
    assert delays.shape == (len(vths), len(toxes))
    assert leakages.shape == delays.shape and energies.shape == delays.shape
    for i, vth in enumerate(vths):
        for j, tox in enumerate(toxes):
            cost = block.evaluate(float(vth), float(tox))
            np.testing.assert_allclose(delays[i, j], cost.delay, rtol=RTOL)
            np.testing.assert_allclose(
                leakages[i, j], cost.leakage_power, rtol=RTOL
            )
            np.testing.assert_allclose(
                energies[i, j], cost.dynamic_energy, rtol=RTOL
            )


class TestStructuralComponents:
    def test_all_components_match_scalar(self, tiny_cache, tiny_space):
        vths = np.asarray(tiny_space.vth_values)
        toxes = np.array(
            [units.angstrom(a) for a in tiny_space.tox_values_angstrom]
        )
        for block in tiny_cache.components.values():
            _assert_grid_matches_scalar(block, vths, toxes)

    def test_scalar_inputs_accepted(self, tiny_cache):
        block = tiny_cache.components["array"]
        delays, leakages, energies = block.evaluate_grid(
            0.35, units.angstrom(12.0)
        )
        cost = block.evaluate(0.35, units.angstrom(12.0))
        assert delays.shape == (1, 1)
        np.testing.assert_allclose(delays[0, 0], cost.delay, rtol=RTOL)
        np.testing.assert_allclose(
            leakages[0, 0], cost.leakage_power, rtol=RTOL
        )
        np.testing.assert_allclose(
            energies[0, 0], cost.dynamic_energy, rtol=RTOL
        )


class TestFittedComponents:
    def test_fitted_components_match_scalar(self, fitted_16k, tiny_space):
        vths = np.asarray(tiny_space.vth_values)
        toxes = np.array(
            [units.angstrom(a) for a in tiny_space.tox_values_angstrom]
        )
        for block in fitted_16k.components.values():
            _assert_grid_matches_scalar(block, vths, toxes)

    def test_analytical_alias(self):
        from repro.models.analytical import AnalyticalComponent, FittedComponent

        assert AnalyticalComponent is FittedComponent


class TestDecoderStackSolve:
    """The decoder solves the stack-effect node once per grid and once
    per scalar evaluation, shared by every NAND fan-in and Tox column."""

    @staticmethod
    def _count_solves(monkeypatch):
        from repro.devices import stack

        calls = []
        solve = stack.solve_intermediate_node

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(stack, "solve_intermediate_node", counted)
        return calls

    @staticmethod
    def _grid_axes(space):
        vths = np.asarray(space.vth_values)
        toxes = np.array(
            [units.angstrom(a) for a in space.tox_values_angstrom]
        )
        return vths, toxes

    def test_one_solve_per_grid(self, tiny_cache, tiny_space, monkeypatch):
        calls = self._count_solves(monkeypatch)
        tiny_cache.components["decoder"].evaluate_grid(
            *self._grid_axes(tiny_space)
        )
        assert len(calls) == 1

    def test_one_solve_per_scalar_decoder_evaluate(
        self, tiny_cache, monkeypatch
    ):
        tox = units.angstrom(12.0)
        decoder = tiny_cache.components["decoder"]._decoder_at(0.3, tox)
        # Predecode banks plus the row NAND: several gates share one solve.
        assert len(decoder.groups) >= 2
        calls = self._count_solves(monkeypatch)
        decoder.evaluate(0.3, tox)
        assert len(calls) == 1

    def test_no_solve_without_stack_effect(
        self, technology, tiny_cache, tiny_space, monkeypatch
    ):
        model = CacheModel(
            tiny_cache.config, technology=technology, stack_enabled=False
        )
        block = model.components["decoder"]
        calls = self._count_solves(monkeypatch)
        block.evaluate_grid(*self._grid_axes(tiny_space))
        block.evaluate(0.3, units.angstrom(12.0))
        assert calls == []

    def test_grid_equals_per_column_evaluation(
        self, technology, tiny_cache, small_space
    ):
        vths, toxes = self._grid_axes(small_space)
        for stack_enabled in (True, False):
            block = CacheModel(
                tiny_cache.config,
                technology=technology,
                stack_enabled=stack_enabled,
            ).components["decoder"]
            delays, leakages, energies = block.evaluate_grid(vths, toxes)
            for j, tox in enumerate(toxes):
                cost = block._evaluate(vths, float(tox))
                for grid, column in (
                    (delays, cost.delay),
                    (leakages, cost.leakage_power),
                    (energies, cost.dynamic_energy),
                ):
                    # Vth-free quantities come back as one scalar.
                    column = np.broadcast_to(column, vths.shape)
                    assert np.array_equal(grid[:, j], column)
