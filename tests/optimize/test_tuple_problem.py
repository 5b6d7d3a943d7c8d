"""Figure 2 tuple problem."""

import sys
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.archsim.missmodel import calibrated_miss_model
from repro.cache.assignment import COMPONENT_NAMES
from repro.cache.cache_model import CacheModel
from repro.cache.config import l1_config, l2_config
from repro.energy.dynamic import MainMemoryModel
from repro.errors import ConfigurationError, OptimizationError
from repro.experiments.figure2 import fast_space
from repro.optimize import tuple_problem
from repro.optimize.pareto import pareto_indices, pareto_indices_2d
from repro.optimize.single_cache import component_tables
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

    @pytest.mark.parametrize(
        "counts", [(1.5, 2), (2, 2.0), (True, 1), (1, False)]
    )
    def test_rejects_non_integer_counts(self, counts):
        with pytest.raises(OptimizationError, match="integers"):
            TupleBudget(*counts)

    def test_accepts_numpy_integers(self):
        assert TupleBudget(np.int64(2), np.int32(3)) == TupleBudget(2, 3)

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

    @pytest.mark.parametrize(
        "fill_factor", [-1.0, float("nan"), float("inf")]
    )
    def test_rejects_bad_fill_factor(self, micro_space, fill_factor):
        with pytest.raises(ConfigurationError, match="fill_factor"):
            solve_tuple_problem(
                CacheModel(l1_config(8)),
                CacheModel(l2_config(256)),
                calibrated_miss_model("spec2000"),
                space=micro_space,
                fill_factor=fill_factor,
            )


    @pytest.mark.parametrize("level", ["l1", "l2"])
    @pytest.mark.parametrize("rate", [-0.01, float("nan")])
    def test_rejects_bad_miss_rate(self, micro_space, level, rate):
        miss_model = calibrated_miss_model("spec2000")
        rates = {
            "l1": lambda size: miss_model.l1_miss_rate(size),
            "l2": lambda size: miss_model.l2_local_miss_rate(size),
        }
        rates[level] = lambda size: rate
        with pytest.raises(ConfigurationError, match=f"{level} miss rate"):
            solve_tuple_problem(
                CacheModel(l1_config(8)),
                CacheModel(l2_config(256)),
                SimpleNamespace(
                    l1_miss_rate=rates["l1"],
                    l2_local_miss_rate=rates["l2"],
                ),
                budgets=(TupleBudget(1, 1),),
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


def _cache_options_for_pairs(stacked, pair_indices):
    """Test-only oracle: one pair subset's pruned whole-cache options.

    Prunes each component's candidates within the subset with its own
    :func:`pareto_indices` call, then sums the components one at a time,
    pruning the partial sums after each step."""
    costs = None
    for component_costs in stacked:
        subset = component_costs[pair_indices]
        subset = subset[pareto_indices(subset)]
        if costs is None:
            costs = subset
        else:
            costs = (costs[:, None, :] + subset[None, :, :]).reshape(-1, 3)
            costs = costs[pareto_indices(costs)]
    return tuple_problem._CacheOptions(
        delays=costs[:, 0], leakages=costs[:, 1], energies=costs[:, 2]
    )


def _per_subset_oracle(
    l1_model, l2_model, miss_model, budgets, space,
    memory=MainMemoryModel(), fill_factor=1.0,
):
    """Test-only oracle for :func:`solve_tuple_problem`: every pair
    subset solved on its own (component prunes, sums, a 2-D prune of its
    own cloud), then one 2-D prune of all subsets' fronts per budget."""
    n_vth = len(space.vth_values)
    n_tox = len(space.tox_values_angstrom)
    m1 = miss_model.l1_miss_rate(l1_model.config.size_bytes)
    m2 = miss_model.l2_local_miss_rate(l2_model.config.size_bytes)
    stacked = [
        tuple_problem._stacked_costs(component_tables(model, space))
        for model in (l1_model, l2_model)
    ]
    curves = {}
    for budget in budgets:
        collected = []
        for vth_ids in combinations(range(n_vth), budget.n_vth):
            for tox_ids in combinations(range(n_tox), budget.n_tox):
                pairs = [i * n_tox + j for i in vth_ids for j in tox_ids]
                l1, l2 = (
                    _cache_options_for_pairs(costs, pairs) for costs in stacked
                )
                points = tuple_problem._combine_system(
                    l1, l2, m1, m2, memory, fill_factor
                )
                collected.append(points[pareto_indices_2d(points)])
        merged = np.vstack(collected)
        front = merged[pareto_indices_2d(merged)]
        order = np.argsort(front[:, 0], kind="stable")
        curves[budget] = TupleCurve(
            budget=budget, amats=front[order, 0], energies=front[order, 1]
        )
    return curves


def _assert_same_curves(solved, oracle, budgets):
    assert list(solved) == list(oracle) == list(dict.fromkeys(budgets))
    for budget, curve in solved.items():
        assert np.array_equal(curve.amats, oracle[budget].amats)
        assert np.array_equal(curve.energies, oracle[budget].energies)


class TestAgainstPerSubsetOracle:
    """The batched, lattice-seeded solve returns exactly the curves of
    solving every pair subset on its own."""

    @pytest.mark.parametrize(
        "node, style", [(65, "itrs"), (22, "cons"), (8, "cons")]
    )
    def test_fast_space(self, node, style):
        technology = node_technology(node, style)
        args = (
            CacheModel(l1_config(16), technology=technology),
            CacheModel(l2_config(1024), technology=technology),
            calibrated_miss_model("spec2000"),
        )
        space = fast_space(technology)
        _assert_same_curves(
            solve_tuple_problem(*args, space=space),
            _per_subset_oracle(*args, FIGURE2_BUDGETS, space),
            FIGURE2_BUDGETS,
        )

    @pytest.mark.parametrize(
        "budgets",
        [
            # Largest first: no budget finds a solved one it contains.
            ((2, 3), (2, 2), (2, 1), (1, 2), (1, 1)),
            ((2, 2), (1, 1), (2, 2), (1, 2), (1, 1)),
            ((2, 3),),
            ((1, 1),),
        ],
        ids=["reversed", "duplicated", "only-2x3", "only-1x1"],
    )
    def test_micro_space_budget_orders(self, micro_space, budgets):
        budgets = tuple(TupleBudget(*counts) for counts in budgets)
        args = (
            CacheModel(l1_config(8)),
            CacheModel(l2_config(256)),
            calibrated_miss_model("spec2000"),
        )
        _assert_same_curves(
            solve_tuple_problem(*args, budgets=budgets, space=micro_space),
            _per_subset_oracle(*args, budgets, micro_space),
            budgets,
        )

    def test_one_subset_per_chunk(self, micro_space):
        """The running front is extended after every subset's cloud, and
        each subset is bounded against it: under a non-default memory
        and fill the curves are still the oracle's."""
        budgets = (TupleBudget(1, 2), TupleBudget(2, 2), TupleBudget(2, 3))
        args = (
            CacheModel(l1_config(8)),
            CacheModel(l2_config(256)),
            calibrated_miss_model("spec2000"),
        )
        memory = MainMemoryModel(latency=50e-9, energy_per_access=5e-9)
        _assert_same_curves(
            solve_tuple_problem(
                *args, budgets=budgets, space=micro_space,
                memory=memory, fill_factor=0.5,
            ),
            _per_subset_oracle(
                *args, budgets, micro_space, memory=memory, fill_factor=0.5
            ),
            budgets,
        )


def _quantised_tables(n_points):
    """One synthetic cache: every component's (delay, leakage, energy)
    table drawn from a few small integers, so exact ties are common."""
    column = st.lists(
        st.integers(min_value=0, max_value=3).map(float),
        min_size=n_points, max_size=n_points,
    ).map(np.array)
    table = st.builds(
        lambda d, l, e: SimpleNamespace(delays=d, leakages=l, energies=e),
        column, column, column,
    )
    return st.fixed_dictionaries({name: table for name in COMPONENT_NAMES})


@st.composite
def _synthetic_problems(draw):
    """A 3x2 to 4x3 grid with synthetic tables for both caches, miss
    rates and ``fill_factor`` at their ends included, a non-default
    main memory, and one to four budgets that fit the grid."""
    n_vth = draw(st.integers(min_value=3, max_value=4))
    n_tox = draw(st.integers(min_value=2, max_value=3))
    space = DesignSpace(
        vth_values=tuple(np.linspace(0.2, 0.5, n_vth)),
        tox_values_angstrom=tuple(np.linspace(10.0, 14.0, n_tox)),
    )
    rate = st.one_of(
        st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)
    )
    fitting = [
        TupleBudget(n_tox=t, n_vth=v)
        for t in range(1, n_tox + 1) for v in range(1, n_vth + 1)
    ]
    return SimpleNamespace(
        space=space,
        tables=[draw(_quantised_tables(n_vth * n_tox)) for _ in range(2)],
        m1=draw(rate),
        m2=draw(rate),
        fill_factor=draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])),
        memory=MainMemoryModel(
            latency=float(draw(st.integers(min_value=1, max_value=8))),
            energy_per_access=float(draw(st.integers(0, 8))),
        ),
        budgets=tuple(draw(st.lists(
            st.sampled_from(fitting), min_size=1, max_size=4
        ))),
    )


class TestBoundedSolve:
    """The bounds against the running front drop only what cannot reach
    it: on tie-heavy synthetic tables the solve is the per-subset
    oracle's, bit for bit, and on a real explore pair they do bite."""

    @settings(max_examples=60, deadline=None)
    @given(_synthetic_problems())
    def test_matches_per_subset_oracle(self, problem):
        models = [
            SimpleNamespace(
                tables=tables, config=SimpleNamespace(size_bytes=0)
            )
            for tables in problem.tables
        ]
        miss_model = SimpleNamespace(
            l1_miss_rate=lambda size: problem.m1,
            l2_local_miss_rate=lambda size: problem.m2,
        )
        with pytest.MonkeyPatch.context() as patch:
            for module in (tuple_problem, sys.modules[__name__]):
                patch.setattr(
                    module, "component_tables",
                    lambda model, space: model.tables,
                )
            options = {
                "memory": problem.memory, "fill_factor": problem.fill_factor
            }
            _assert_same_curves(
                solve_tuple_problem(
                    *models, miss_model, budgets=problem.budgets,
                    space=problem.space, **options,
                ),
                _per_subset_oracle(
                    *models, miss_model, problem.budgets, problem.space,
                    **options,
                ),
                problem.budgets,
            )

    def test_bounds_cut_work_on_explore_pair(self, monkeypatch):
        """65 nm itrs, Figure 2's caches on ``fast_space``: without the
        bounds every one of the 115 subsets is combined and 690
        three-column prunes run."""
        counts = {"prunes": 0, "combined": 0}

        def counted(function, key):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            tuple_problem, "pareto_indices",
            counted(tuple_problem.pareto_indices, "prunes"),
        )
        monkeypatch.setattr(
            tuple_problem, "_combine_system",
            counted(tuple_problem._combine_system, "combined"),
        )
        technology = node_technology(65, "itrs")
        solve_tuple_problem(
            CacheModel(l1_config(16, associativity=2), technology=technology),
            CacheModel(l2_config(1024, associativity=8),
                       technology=technology),
            calibrated_miss_model("spec2000"),
            space=fast_space(technology),
        )
        assert 0 < counts["prunes"] < 690
        assert 0 < counts["combined"] < 115


def _subset_problems():
    """Integer component costs (ties and duplicate rows are common) and
    boolean subset-membership rows over the same points."""
    costs = st.integers(min_value=0, max_value=2)
    return st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(
                    st.tuples(costs, costs, costs), min_size=n, max_size=n
                ),
                min_size=1,
                max_size=3,
            ),
            st.lists(
                st.lists(st.booleans(), min_size=n, max_size=n),
                min_size=1,
                max_size=8,
            ),
        )
    )


class TestSubsetFronts:
    """Every batched subset front is the per-subset ``pareto_indices``
    front, index for index."""

    @settings(max_examples=150, deadline=None)
    @given(_subset_problems())
    def test_matches_pareto_indices(self, problem):
        components, rows = problem
        stacked = [np.array(rows_, dtype=float) for rows_ in components]
        members = np.array(rows, dtype=bool)
        fronts = tuple_problem._subset_fronts(stacked, members)
        assert len(fronts) == len(stacked)
        for costs, front in zip(stacked, fronts):
            assert front.shape == members.shape
            for member, kept in zip(members, front):
                subset = np.flatnonzero(member)
                expected = subset[pareto_indices(costs[subset])]
                assert np.array_equal(np.flatnonzero(kept), expected)

    def test_rejects_nan(self):
        """NaN has no order, and the solve's bounds need every cost
        finite and non-negative."""
        for bad in (np.nan, np.inf, -np.inf, -1.0, -5e-324):
            costs = np.array([[1.0, bad, 1.0], [2.0, 2.0, 2.0]])
            with pytest.raises(OptimizationError, match="finite and >= 0"):
                tuple_problem._subset_fronts(
                    [costs], np.ones((1, 2), dtype=bool)
                )
