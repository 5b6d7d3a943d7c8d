"""Figure 2 tuple problem."""

import numpy as np
import pytest

from repro import units
from repro.archsim.missmodel import calibrated_miss_model
from repro.cache.cache_model import CacheModel
from repro.cache.config import l1_config, l2_config
from repro.errors import OptimizationError
from repro.experiments.figure2 import fast_space
from repro.optimize import tuple_problem
from repro.optimize.space import DesignSpace
from repro.optimize.tuple_problem import (
    FIGURE2_BUDGETS,
    TupleBudget,
    TupleCurve,
    curve_ordering_at,
    solve_tuple_problem,
)
from repro.technology.nodes import node_technology
from tests.optimize.test_pareto import _unique_collapse_reference


@pytest.fixture(scope="module")
def micro_space():
    """A 3 Vth x 2 Tox grid keeping the combinatorics tiny."""
    return DesignSpace(
        vth_values=(0.2, 0.35, 0.5), tox_values_angstrom=(10.0, 14.0)
    )


@pytest.fixture(scope="module")
def curves(micro_space):
    miss_model = calibrated_miss_model("spec2000")
    l1 = CacheModel(l1_config(8))
    l2 = CacheModel(l2_config(256))
    budgets = (
        TupleBudget(1, 1),
        TupleBudget(1, 2),
        TupleBudget(2, 1),
        TupleBudget(2, 2),
        TupleBudget(2, 3),
    )
    return solve_tuple_problem(
        l1, l2, miss_model, budgets=budgets, space=micro_space
    )


class TestBudget:
    def test_label(self):
        assert TupleBudget(2, 3).label == "2 Tox + 3 Vth"

    def test_n_pairs(self):
        assert TupleBudget(2, 3).n_pairs == 6

    def test_rejects_zero(self):
        with pytest.raises(OptimizationError):
            TupleBudget(0, 1)

    def test_figure2_budgets(self):
        labels = {budget.label for budget in FIGURE2_BUDGETS}
        assert labels == {
            "2 Tox + 2 Vth",
            "2 Tox + 3 Vth",
            "3 Tox + 2 Vth",
            "2 Tox + 1 Vth",
            "1 Tox + 2 Vth",
        }


class TestCurveShape:
    def test_curves_are_pareto(self, curves):
        for curve in curves.values():
            assert list(curve.amats) == sorted(curve.amats)
            assert all(np.diff(curve.energies) < 0)

    def test_energy_at_monotone_in_budget(self, curves):
        curve = curves[TupleBudget(2, 2)]
        loose = curve.energy_at(curve.amats[-1])
        tight = curve.energy_at(curve.amats[0])
        assert loose <= tight

    def test_energy_at_infeasible(self, curves):
        curve = curves[TupleBudget(2, 2)]
        assert curve.energy_at(0.0) == float("inf")

    def test_n_points(self, curves):
        for curve in curves.values():
            assert curve.n_points == len(curve.amats) > 0


class TestBudgetDominance:
    """More allowed values can never hurt: a superset budget's curve must
    weakly dominate its subset's — the key structural invariant."""

    @pytest.mark.parametrize(
        "small,large",
        [
            ((1, 1), (1, 2)),
            ((1, 1), (2, 1)),
            ((1, 2), (2, 2)),
            ((2, 1), (2, 2)),
            ((2, 2), (2, 3)),
        ],
    )
    def test_superset_weakly_dominates(self, curves, small, large):
        small_curve = curves[TupleBudget(*small)]
        large_curve = curves[TupleBudget(*large)]
        for amat, energy in zip(small_curve.amats, small_curve.energies):
            assert large_curve.energy_at(amat * (1 + 1e-12)) <= energy * (
                1 + 1e-9
            )


class TestPaperOrdering:
    def test_vth_beats_tox_as_second_knob(self):
        """1 Tox + 2 Vth must beat 2 Tox + 1 Vth at relaxed AMAT — the
        paper's 'Vth is the better knob' system-level finding.  This needs
        the paper's system (16K L1, 1M L2) and a grid with interior Tox
        values; tiny grids with only extreme oxides bias toward Tox.
        """
        miss_model = calibrated_miss_model("spec2000")
        l1 = CacheModel(l1_config(16))
        l2 = CacheModel(l2_config(1024))
        paper_curves = solve_tuple_problem(
            l1,
            l2,
            miss_model,
            budgets=(TupleBudget(1, 2), TupleBudget(2, 1)),
            space=fast_space(),
        )
        relaxed = max(c.amats[-1] for c in paper_curves.values())
        vth_budget = paper_curves[TupleBudget(1, 2)].energy_at(relaxed)
        tox_budget = paper_curves[TupleBudget(2, 1)].energy_at(relaxed)
        assert vth_budget < tox_budget

    def test_ranking_helper(self, curves):
        relaxed = max(curve.amats[-1] for curve in curves.values())
        ranked = curve_ordering_at(curves, relaxed)
        energies = [energy for _, energy in ranked]
        assert energies == sorted(energies)
        # Best-ranked budget must be one of the largest budgets.
        assert ranked[0][0].n_pairs >= 4


class TestValidation:
    def test_budget_exceeding_grid(self, micro_space):
        miss_model = calibrated_miss_model("spec2000")
        l1 = CacheModel(l1_config(8))
        l2 = CacheModel(l2_config(256))
        with pytest.raises(OptimizationError):
            solve_tuple_problem(
                l1,
                l2,
                miss_model,
                budgets=(TupleBudget(5, 5),),
                space=micro_space,
            )


class TestKernelAgainstOracle:
    """Figure 2's curves come out the same with the sort kernel as with
    the test-only pairwise oracle at every 3-column prune."""

    @pytest.mark.parametrize("node, style", [(65, "itrs"), (8, "cons")])
    def test_curves_identical(self, monkeypatch, node, style):
        technology = node_technology(node, style)
        args = (
            CacheModel(l1_config(16), technology=technology),
            CacheModel(l2_config(1024), technology=technology),
            calibrated_miss_model("spec2000"),
        )
        space = fast_space(technology)
        kernel = solve_tuple_problem(*args, space=space)
        monkeypatch.setattr(
            tuple_problem, "pareto_indices", _unique_collapse_reference
        )
        oracle = solve_tuple_problem(*args, space=space)
        assert list(kernel) == list(oracle) == list(FIGURE2_BUDGETS)
        for budget, curve in kernel.items():
            assert np.array_equal(curve.amats, oracle[budget].amats)
            assert np.array_equal(curve.energies, oracle[budget].energies)
