"""Ablations of the modelling choices DESIGN.md §5 calls out.

Each test switches one modelling ingredient off (or sweeps it) on the
paper's 16 KB cache and checks what the paper's conclusions would have
looked like without it — the reason the ingredient is in the model.
The remaining §5 items extend existing tests: pruned-vs-exhaustive
Scheme I in tests/optimize/test_single_cache.py, population leakage in
tests/devices/test_variability.py, the area price of thick Tox in
tests/cache/test_cache_model.py.
"""

from repro import units
from repro.cache.assignment import knobs
from repro.cache.cache_model import CacheModel
from repro.cache.config import CacheConfig
from repro.optimize.schemes import Scheme
from repro.optimize.single_cache import minimize_leakage
from repro.optimize.space import default_space
from repro.technology.bptm import bptm65
from repro.technology.scaling import ToxScalingRule


def sixteen_k():
    return CacheConfig(
        size_bytes=16 * 1024, block_bytes=32, associativity=2, name="L1"
    )


class TestGateLeakage:
    """Without gate tunnelling (the pre-2005 literature mode), thick
    oxide loses its leakage reward — the paper's core 'total leakage'
    motivation."""

    def test_optimal_tox_shifts(self):
        chosen = {}
        for gate_enabled in (True, False):
            model = CacheModel(sixteen_k(), gate_enabled=gate_enabled)
            result = minimize_leakage(
                model, Scheme.UNIFORM, units.ps(1400), space=default_space()
            )
            chosen[gate_enabled] = result.assignment.array
        # With gate leakage modelled, the optimiser pays delay for thick
        # oxide; without it there is little reason to.
        assert chosen[True].tox >= chosen[False].tox

    def test_thin_oxide_corner_underestimated_tenfold(self):
        full = CacheModel(sixteen_k())
        sub_only = CacheModel(sixteen_k(), gate_enabled=False)
        point = knobs(0.5, 10)
        ratio = (
            full.uniform(point).leakage_power
            / sub_only.uniform(point).leakage_power
        )
        assert ratio > 10


class TestStackEffect:
    def test_decoder_leaks_more_without_stacks(self):
        point = knobs(0.25, 12)
        with_stack = CacheModel(sixteen_k(), stack_enabled=True)
        without = CacheModel(sixteen_k(), stack_enabled=False)
        a = with_stack.components["decoder"].leakage_power(
            point.vth, point.tox
        )
        b = without.components["decoder"].leakage_power(point.vth, point.tox)
        assert b > a


class TestToxCoupling:
    """Section 2's Tox -> channel-length/cell-area coupling: without it,
    thick oxide is much cheaper in delay, overstating Tox as a knob."""

    def test_delay_ratio_grows_with_exponent(self):
        ratios = {}
        for exponent in (0.0, 0.6, 1.0):
            technology = bptm65()
            rule = ToxScalingRule(
                technology=technology, length_exponent=exponent
            )
            model = CacheModel(sixteen_k(), technology=technology, rule=rule)
            thin = model.uniform(knobs(0.3, 10)).access_time
            thick = model.uniform(knobs(0.3, 14)).access_time
            ratios[exponent] = thick / thin
        assert ratios[0.0] < ratios[0.6] < ratios[1.0]


class TestGridResolution:
    """The paper discretises 'with small step size'; a coarse grid may
    cost the optimum some leakage, never gains any, and costs less than
    2x."""

    def test_coarse_grid_penalty(self):
        model = CacheModel(sixteen_k())
        optimum = {}
        for label, space in (
            ("fine", default_space()),
            ("coarse", default_space(vth_step=0.1, tox_step=2.0)),
        ):
            optimum[label] = minimize_leakage(
                model, Scheme.CELL_VS_PERIPHERY, units.ps(1300), space=space
            ).leakage_power
        assert optimum["coarse"] >= optimum["fine"] * (1 - 1e-9)
        assert optimum["coarse"] / optimum["fine"] - 1.0 < 1.0
