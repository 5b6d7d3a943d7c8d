"""Section 4 optimiser: exactness, scheme ordering, frontier shape."""

import itertools

import numpy as np
import pytest

from repro import units
from repro.cache.assignment import Assignment, COMPONENT_NAMES
from repro.errors import InfeasibleConstraintError, OptimizationError
from repro.optimize.schemes import Scheme
from repro.optimize.single_cache import (
    component_tables,
    enumerate_candidates,
    fixed_knob_sweep,
    leakage_delay_frontier,
    minimize_leakage,
)


@pytest.fixture(scope="module")
def tables(tiny_cache, tiny_space):
    return component_tables(tiny_cache, tiny_space)


class TestSchemeEnumeration:
    def test_scheme3_candidate_count(self, tiny_cache, tiny_space, tables):
        assignments, delays, leaks = enumerate_candidates(
            tiny_cache, Scheme.UNIFORM, tiny_space, tables
        )
        assert len(assignments) == len(delays) == 9

    def test_scheme2_candidate_count(self, tiny_cache, tiny_space, tables):
        assignments, delays, leaks = enumerate_candidates(
            tiny_cache, Scheme.CELL_VS_PERIPHERY, tiny_space, tables
        )
        assert len(assignments) == len(delays) == 81

    def test_scheme1_candidates_pruned(self, tiny_cache, tiny_space, tables):
        assignments, delays, leaks = enumerate_candidates(
            tiny_cache, Scheme.PER_COMPONENT, tiny_space, tables
        )
        # Pruning keeps at most the full product.
        assert len(assignments) <= 9**4
        assert len(assignments) == len(delays) == len(leaks)

    def test_lazy_assignments_materialise_correctly(
        self, tiny_cache, tiny_space, tables
    ):
        assignments, delays, leaks = enumerate_candidates(
            tiny_cache, Scheme.CELL_VS_PERIPHERY, tiny_space, tables
        )
        # Index 0 is (first cell point, first periphery point).
        first = assignments[0]
        points = tiny_space.point_list()
        assert first.array == points[0]
        assert first["decoder"] == points[0]
        last = assignments[80]
        assert last.array == points[8]

    def test_lazy_assignment_index_error(self, tiny_cache, tiny_space, tables):
        assignments, _, _ = enumerate_candidates(
            tiny_cache, Scheme.UNIFORM, tiny_space, tables
        )
        with pytest.raises(IndexError):
            assignments[9]

    def test_candidate_sums_match_model(self, tiny_cache, tiny_space, tables):
        """Vectorised totals must equal a direct model evaluation."""
        assignments, delays, leaks = enumerate_candidates(
            tiny_cache, Scheme.CELL_VS_PERIPHERY, tiny_space, tables
        )
        index = 37
        evaluation = tiny_cache.evaluate(assignments[index])
        assert delays[index] == pytest.approx(evaluation.access_time)
        assert leaks[index] == pytest.approx(evaluation.leakage_power)


class TestExactness:
    def test_scheme2_matches_brute_force(self, tiny_cache, tiny_space, tables):
        """The vectorised optimiser must equal explicit enumeration."""
        constraint = units.ps(1600)
        result = minimize_leakage(
            tiny_cache, Scheme.CELL_VS_PERIPHERY, constraint, tables=tables
        )
        best = None
        for cell in tiny_space.points():
            for periph in tiny_space.points():
                assignment = Assignment.split(cell=cell, periphery=periph)
                evaluation = tiny_cache.evaluate(assignment)
                if evaluation.access_time <= constraint:
                    if best is None or evaluation.leakage_power < best:
                        best = evaluation.leakage_power
        assert result.leakage_power == pytest.approx(best)

    def test_scheme1_matches_brute_force(self, tiny_cache, tiny_space, tables):
        """Pareto pruning must not change the optimum."""
        evaluations = [
            tiny_cache.evaluate(
                Assignment.from_mapping(dict(zip(COMPONENT_NAMES, combo)))
            )
            for combo in itertools.product(tiny_space.point_list(), repeat=4)
        ]
        for constraint in (units.ps(1500), units.ps(1600)):
            result = minimize_leakage(
                tiny_cache, Scheme.PER_COMPONENT, constraint, tables=tables
            )
            best = min(
                evaluation.leakage_power
                for evaluation in evaluations
                if evaluation.access_time <= constraint
            )
            assert result.leakage_power == pytest.approx(best)


class TestPaperFindings:
    @pytest.mark.parametrize("target_ps", [900, 1100, 1500])
    def test_scheme_ordering(self, l1_16k, small_space, target_ps):
        """Scheme I <= Scheme II <= Scheme III at any feasible target."""
        tables = component_tables(l1_16k, small_space)
        results = {
            scheme: minimize_leakage(
                l1_16k, scheme, units.ps(target_ps), tables=tables
            )
            for scheme in Scheme
        }
        assert (
            results[Scheme.PER_COMPONENT].leakage_power
            <= results[Scheme.CELL_VS_PERIPHERY].leakage_power + 1e-12
        )
        assert (
            results[Scheme.CELL_VS_PERIPHERY].leakage_power
            <= results[Scheme.UNIFORM].leakage_power + 1e-12
        )

    def test_array_gets_conservative_knobs(self, l1_16k, small_space):
        tables = component_tables(l1_16k, small_space)
        result = minimize_leakage(
            l1_16k, Scheme.CELL_VS_PERIPHERY, units.ps(1200), tables=tables
        )
        array = result.assignment.array
        periphery = result.assignment["decoder"]
        assert array.vth >= periphery.vth
        assert array.tox >= periphery.tox

    def test_result_meets_constraint(self, l1_16k, small_space):
        tables = component_tables(l1_16k, small_space)
        constraint = units.ps(1300)
        for scheme in Scheme:
            result = minimize_leakage(
                l1_16k, scheme, constraint, tables=tables
            )
            assert result.access_time <= constraint
            assert result.slack >= 0


class TestInfeasibility:
    def test_raises_with_best_achievable(self, tiny_cache, tiny_space, tables):
        with pytest.raises(InfeasibleConstraintError) as info:
            minimize_leakage(
                tiny_cache, Scheme.UNIFORM, units.ps(1), tables=tables
            )
        assert info.value.best_achievable > units.ps(1)

    def test_unknown_scheme(self, tiny_cache, tiny_space, tables):
        with pytest.raises(OptimizationError):
            enumerate_candidates(tiny_cache, "scheme-9", tiny_space, tables)


class TestFrontier:
    def test_frontier_sorted_and_tradeoff_shaped(self, tiny_cache, tiny_space,
                                                 tables):
        delays, leaks, assignments = leakage_delay_frontier(
            tiny_cache, Scheme.UNIFORM, tiny_space, tables
        )
        assert list(delays) == sorted(delays)
        # Along a Pareto front, slower must mean strictly less leaky.
        assert all(np.diff(leaks) < 0)
        assert len(assignments) == len(delays)

    def test_scheme2_frontier_dominates_scheme3(
        self, tiny_cache, tiny_space, tables
    ):
        """At equal delay, Scheme II's frontier must be at or below III's."""
        delays3, leaks3, _ = leakage_delay_frontier(
            tiny_cache, Scheme.UNIFORM, tiny_space, tables
        )
        delays2, leaks2, _ = leakage_delay_frontier(
            tiny_cache, Scheme.CELL_VS_PERIPHERY, tiny_space, tables
        )
        for delay, leak in zip(delays3, leaks3):
            # The relative tolerance absorbs summation-order fp noise
            # between the two schemes' delay totals.
            achievable = leaks2[delays2 <= delay * (1 + 1e-9)]
            assert achievable.size > 0
            assert achievable.min() <= leak * (1 + 1e-9)


class TestFixedKnobSweep:
    def test_requires_exactly_one_fixed(self, tiny_cache, tiny_space):
        with pytest.raises(OptimizationError):
            fixed_knob_sweep(tiny_cache, space=tiny_space)
        with pytest.raises(OptimizationError):
            fixed_knob_sweep(
                tiny_cache,
                fixed_vth=0.3,
                fixed_tox_angstrom=12.0,
                space=tiny_space,
            )

    def test_fixed_tox_sweeps_vth(self, tiny_cache, tiny_space):
        times, leaks, points = fixed_knob_sweep(
            tiny_cache, fixed_tox_angstrom=12.0, space=tiny_space
        )
        assert len(points) == len(tiny_space.vth_values)
        assert all(p.tox_angstrom == pytest.approx(12.0) for p in points)
        assert list(times) == sorted(times)  # slower with rising Vth

    def test_fixed_vth_sweeps_tox(self, tiny_cache, tiny_space):
        times, leaks, points = fixed_knob_sweep(
            tiny_cache, fixed_vth=0.3, space=tiny_space
        )
        assert len(points) == len(tiny_space.tox_values_angstrom)
        assert all(p.vth == 0.3 for p in points)
        assert list(leaks) == sorted(leaks, reverse=True)
