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
from hypothesis import given, settings, strategies as st

from repro import units
from repro.cache.cache_model import CacheModel
from repro.cache.config import l1_config, l2_config
from repro.errors import DeviceModelError
from repro.technology.bptm import bptm65
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


class TestNandPerFanIn:
    """The decoder prices one idle NAND per distinct fan-in and sums the
    gates in their old order."""

    @staticmethod
    def _per_gate_leakage(decoder, vth, tox):
        """The decoder's leakage with one ``_nand_leakage`` per gate
        bank, as it was summed before gates of one fan-in shared one."""
        from repro.circuits.logical_effort import optimal_buffer_chain
        from repro.devices.stack import two_stack_factor_kernel

        tech = decoder.technology
        geometry = decoder.rule.geometry(tox)
        factor = two_stack_factor_kernel(tech, vth, tox, geometry.leff)
        leakage = 0.0
        for group in decoder.groups:
            leakage += (2 ** group) * decoder._nand_leakage(
                group, vth, geometry, factor
            )
        leakage += decoder.n_rows * decoder._nand_leakage(
            len(decoder.groups), vth, geometry, factor
        )
        chain = optimal_buffer_chain(
            tech,
            load_capacitance=(decoder.wordline_wire.capacitance
                              + decoder.wordline_cell_load),
            leff=geometry.leff,
            lgate=geometry.lgate_drawn,
            vth=vth,
            tox=tox,
            gate_enabled=decoder.gate_enabled,
        )
        return leakage + decoder.n_rows * (
            chain.subthreshold_leakage + chain.gate_leakage
        )

    @pytest.mark.parametrize("config, groups, calls", [
        (l2_config(1024), [2, 2, 2, 3], 3),
        (l1_config(16), [2, 2, 2], 2),
    ])
    def test_one_nand_leakage_per_fan_in(self, config, groups, calls,
                                         monkeypatch):
        from repro.circuits.decoder import RowDecoder

        block = CacheModel(config).components["decoder"]
        vths, toxes = _axes(default_space())
        vth, tox = vths[:, None], toxes[None, :]
        decoder = block._decoder_at(vth, tox)
        assert decoder.groups == groups
        want = self._per_gate_leakage(decoder, vth, tox)

        fan_ins = []
        nand_leakage = RowDecoder._nand_leakage

        def counted(self, fan_in, *args):
            fan_ins.append(fan_in)
            return nand_leakage(self, fan_in, *args)

        monkeypatch.setattr(RowDecoder, "_nand_leakage", counted)
        got = decoder.evaluate(vth, tox).leakage_current
        assert len(fan_ins) == calls
        assert sorted(fan_ins) == sorted(set(groups) | {len(groups)})
        assert np.array_equal(got, want)


#: 65 nm supply: the Vth axis's upper bound.
VDD = bptm65().vdd

#: Knob values every device model accepts, and values some reject.
GOOD_VTH = st.floats(min_value=0.05, max_value=0.95 * VDD)
BAD_VTH = st.sampled_from(
    [-0.1, -0.0, 0.0, VDD, VDD + 0.2, math.nan, math.inf, -math.inf]
)
GOOD_TOX = st.floats(min_value=8.0, max_value=20.0).map(units.angstrom)
BAD_TOX = st.sampled_from(
    [-units.angstrom(12.0), 0.0, math.nan, math.inf, -math.inf]
)


def _raised(call):
    """The class ``call`` raises, or None."""
    try:
        call()
    except Exception as error:  # noqa: BLE001 - the class is the result
        return type(error)
    return None


class TestBoundaryCheck:
    """``evaluate_grid`` checks its axes once and nothing below it
    re-checks: it must raise exactly when the scalar ``evaluate``
    raises at some grid point, with that point's error class."""

    MODEL = CacheModel(l1_config(16))

    @settings(max_examples=40, deadline=None)
    @given(
        vths=st.lists(st.one_of(GOOD_VTH, GOOD_VTH, BAD_VTH),
                      min_size=1, max_size=3),
        toxes=st.lists(st.one_of(GOOD_TOX, GOOD_TOX, BAD_TOX),
                       min_size=1, max_size=3),
    )
    def test_grid_raises_when_a_scalar_point_does(self, vths, toxes):
        for name, block in self.MODEL.components.items():
            scalar = {
                _raised(lambda: block.evaluate(vth, tox))
                for vth in vths for tox in toxes
            } - {None}
            grid = _raised(lambda: block.evaluate_grid(vths, toxes))
            if scalar:
                assert grid in scalar, (name, vths, toxes, grid, scalar)
            else:
                assert grid is None, (name, vths, toxes, grid)


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
        there makes as many calls as the whole 13 x 9 grid.  Below the
        component's knob check the circuits call the unchecked kernel,
        so that is what is counted."""
        from repro.devices import subthreshold

        calls = []
        current = subthreshold.subthreshold_kernel

        def counted(*args, **kwargs):
            calls.append(1)
            return current(*args, **kwargs)

        monkeypatch.setattr(subthreshold, "subthreshold_kernel", counted)
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
