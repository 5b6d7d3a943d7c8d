"""The batch evaluate_grid API must agree with scalar evaluate exactly.

Acceptance bar: every grid element within 1e-9 relative tolerance of the
point-by-point scalar evaluation, for all four structural components and
for the fitted (analytical) components.  The whole-grid pass must also
equal a column-by-column evaluation bit for bit, and bad knobs must be
rejected at the component boundary.
"""

import math

import numpy as np
import pytest

from repro import units
from repro.cache.cache_model import CacheModel
from repro.cache.config import l1_config, l2_config
from repro.errors import DeviceModelError
from repro.experiments.figure2 import fast_space
from repro.optimize.space import default_space
from repro.technology.nodes import NODES, SCALING_STYLES, node_technology

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


def _axes(space):
    vths = np.asarray(space.vth_values, dtype=float)
    toxes = np.array([units.angstrom(a) for a in space.tox_values_angstrom])
    return vths, toxes


def _per_column(block, vths, toxes):
    """The oracle: one Vth-vector evaluation per Tox column, at a float
    Tox, as the component grid was evaluated before the whole-grid
    pass."""
    columns = [block._evaluate(vths, float(tox)) for tox in toxes]
    return tuple(
        np.stack([np.broadcast_to(getattr(cost, field), vths.shape)
                  for cost in columns], axis=1)
        for field in ("delay", "leakage_power", "dynamic_energy")
    )


def _assert_grid_equals_per_column(model, space):
    vths, toxes = _axes(space)
    for name, block in model.components.items():
        grid = block.evaluate_grid(vths, toxes)
        for quantity, got, want in zip(
                ("delay", "leakage", "energy"),
                grid, _per_column(block, vths, toxes)):
            assert got.shape == (vths.size, toxes.size)
            # Callers may write into and ravel the grids they get back.
            assert got.flags.c_contiguous and got.flags.writeable
            assert np.array_equal(got, want), (name, quantity)


def _figure2_models(technology, **switches):
    return (CacheModel(l1_config(16), technology=technology, **switches),
            CacheModel(l2_config(1024), technology=technology, **switches))


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

    def test_one_solve_per_grid(self, tiny_cache, tiny_space, monkeypatch):
        calls = self._count_solves(monkeypatch)
        tiny_cache.components["decoder"].evaluate_grid(
            *_axes(tiny_space)
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
        block.evaluate_grid(*_axes(tiny_space))
        block.evaluate(0.3, units.angstrom(12.0))
        assert calls == []

    def test_grid_equals_per_column_evaluation(
        self, technology, tiny_cache, small_space
    ):
        for stack_enabled in (True, False):
            model = CacheModel(tiny_cache.config, technology=technology,
                               stack_enabled=stack_enabled)
            _assert_grid_equals_per_column(model, small_space)


class TestWholeGridPass:
    """One broadcast pass over the grid equals the per-column loop."""

    @pytest.mark.parametrize("style", SCALING_STYLES)
    @pytest.mark.parametrize("node", NODES)
    def test_e9_pairs_both_caches_both_spaces(self, node, style):
        technology = node_technology(node, style)
        for model in _figure2_models(technology):
            for space in (default_space(technology=technology),
                          fast_space(technology)):
                _assert_grid_equals_per_column(model, space)

    @pytest.mark.parametrize("switch", ["stack_enabled", "gate_enabled"])
    def test_ablation_models(self, technology, switch):
        for model in _figure2_models(technology, **{switch: False}):
            for space in (default_space(), fast_space()):
                _assert_grid_equals_per_column(model, space)

    @pytest.mark.parametrize("node, style, name", [
        (45, "itrs", "address_drivers"),
        (8, "itrs", "decoder"),
    ])
    def test_mixed_stage_counts(self, node, style, name):
        """The 1 MB L2's buffer chain gains a stage at the thick end of
        the Tox axis: the pass must mask the extra stage per column."""
        technology = node_technology(node, style)
        block = CacheModel(l2_config(1024),
                           technology=technology).components[name]
        vths, toxes = _axes(default_space(technology=technology))
        counts = {block._evaluate(0.3, float(tox)).transistor_count
                  for tox in toxes}
        assert len(counts) > 1
        for got, want in zip(block.evaluate_grid(vths, toxes),
                             _per_column(block, vths, toxes)):
            assert np.array_equal(got, want)

    def test_device_calls_do_not_grow_with_tox_columns(
        self, technology, monkeypatch
    ):
        """Each Vth-dependent device call runs once per grid.  The
        thickest Tox has the most buffer stages, so a one-column grid
        there makes as many calls as the whole 13 x 9 grid."""
        from repro.devices import subthreshold

        calls = []
        current = subthreshold.subthreshold_current

        def counted(*args, **kwargs):
            calls.append(1)
            return current(*args, **kwargs)

        monkeypatch.setattr(subthreshold, "subthreshold_current", counted)
        vths, toxes = _axes(default_space())
        assert (vths.size, toxes.size) == (13, 9)
        for block in CacheModel(l2_config(1024)).components.values():
            calls.clear()
            block.evaluate_grid(vths, toxes[-1:])
            one_column = len(calls)
            calls.clear()
            block.evaluate_grid(vths, toxes)
            assert 0 < len(calls) == one_column


class TestKnobValidation:
    """Non-finite knobs and malformed axes fail with DeviceModelError."""

    TOX = units.angstrom(12.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_scalar_evaluate_rejects_non_finite_vth(self, tiny_cache, bad):
        for block in tiny_cache.components.values():
            with pytest.raises(DeviceModelError, match="finite"):
                block.evaluate(bad, self.TOX)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_scalar_evaluate_rejects_non_finite_tox(self, tiny_cache, bad):
        for block in tiny_cache.components.values():
            with pytest.raises(DeviceModelError, match="finite"):
                block.evaluate(0.3, bad)

    def test_grid_rejects_nan_vth(self, tiny_cache):
        for block in tiny_cache.components.values():
            with pytest.raises(DeviceModelError, match="finite"):
                block.evaluate_grid([0.3, math.nan], [self.TOX])

    def test_grid_rejects_nan_tox(self, tiny_cache):
        for block in tiny_cache.components.values():
            with pytest.raises(DeviceModelError, match="finite"):
                block.evaluate_grid([0.3], [self.TOX, math.nan])

    def test_grid_rejects_2d_axis(self, tiny_cache):
        for block in tiny_cache.components.values():
            with pytest.raises(DeviceModelError, match="1-D"):
                block.evaluate_grid([[0.3, 0.35]], [self.TOX])
            with pytest.raises(DeviceModelError, match="1-D"):
                block.evaluate_grid([0.3], [[self.TOX], [self.TOX]])

    def test_empty_axes_give_empty_grids(self, tiny_cache):
        for block in tiny_cache.components.values():
            for vths, toxes, shape in (([], [self.TOX, self.TOX], (0, 2)),
                                       ([0.3, 0.4, 0.5], [], (3, 0))):
                for grid in block.evaluate_grid(vths, toxes):
                    assert grid.shape == shape
