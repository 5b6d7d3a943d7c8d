"""E6 (Figure 2) experiment — run on the trimmed grid.

Kept in its own module because it is the slowest experiment; everything
else in the harness suite stays sub-second.
"""

import pytest

from repro.archsim.missmodel import calibrated_miss_model
from repro.cache.cache_model import CacheModel
from repro.cache.config import l1_config, l2_config
from repro.energy.dynamic import MainMemoryModel
from repro.experiments.figure2 import fast_space, run_figure2
from repro.optimize.tuple_problem import (
    FIGURE2_BUDGETS,
    TupleBudget,
    solve_tuple_problem,
)


@pytest.fixture(scope="module")
def result():
    return run_figure2(fast=True)


class TestE6Figure2:
    def test_findings(self, result):
        for finding in result.findings:
            assert "UNEXPECTED" not in finding, finding

    def test_five_curves(self, result):
        assert len(result.series) == len(FIGURE2_BUDGETS)
        for budget in FIGURE2_BUDGETS:
            assert budget.label in result.series

    def test_amat_axis_matches_paper_range(self, result):
        """Figure 2's x-axis runs ~1300-2100 ps; ours must overlap it."""
        for xs, _ in result.series.values():
            assert xs[0] < 1600
            assert xs[-1] > 1400

    def test_energy_axis_magnitude(self, result):
        """Figure 2's y-axis is tens-to-hundreds of pJ."""
        for _, ys in result.series.values():
            assert ys[-1] > 20  # floor above 20 pJ
            assert ys[-1] < 2000

    def test_fast_space_is_small(self):
        assert fast_space().n_points <= 15


class TestMemoryLatencySensitivity:
    """Figure 2's headline orderings are not artefacts of the 20 ns main
    memory: they hold at 10, 20 and 40 ns."""

    @pytest.mark.parametrize("latency_ns", [10.0, 20.0, 40.0])
    def test_orderings_hold(self, latency_ns):
        budgets = (
            TupleBudget(2, 2),
            TupleBudget(2, 3),
            TupleBudget(2, 1),
            TupleBudget(1, 2),
        )
        curves = solve_tuple_problem(
            CacheModel(l1_config(16)),
            CacheModel(l2_config(1024)),
            calibrated_miss_model("spec2000"),
            budgets=budgets,
            space=fast_space(),
            memory=MainMemoryModel(latency=latency_ns * 1e-9),
        )
        relaxed = max(curve.amats[-1] for curve in curves.values())
        energy = {
            budget: curve.energy_at(relaxed)
            for budget, curve in curves.items()
        }
        # Dual Tox + dual Vth stays within 5 % of 2 Tox + 3 Vth.
        gap = energy[TupleBudget(2, 2)] / energy[TupleBudget(2, 3)] - 1.0
        assert gap < 0.05
        # Vth remains the better second knob.
        assert energy[TupleBudget(1, 2)] < energy[TupleBudget(2, 1)]
