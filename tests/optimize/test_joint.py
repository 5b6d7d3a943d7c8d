"""Joint capacity + knob optimisation."""

import pytest

from repro import units
from repro.archsim.missmodel import blended_miss_model, calibrated_miss_model
from repro.errors import ConfigurationError, OptimizationError
from repro.optimize.joint import (
    OBJECTIVE_ENERGY,
    OBJECTIVE_LEAKAGE,
    optimize_memory_system,
)


@pytest.fixture(scope="module")
def miss_model():
    return calibrated_miss_model("spec2000")


@pytest.fixture(scope="module")
def leakage_design(miss_model, small_space):
    return optimize_memory_system(
        miss_model,
        amat_budget=units.ps(2600),
        l1_sizes_kb=(4, 16),
        l2_sizes_kb=(256, 1024),
        space=small_space,
    )


class TestLeakageObjective:
    def test_meets_budget(self, leakage_design):
        assert leakage_design.amat <= units.ps(2600)

    def test_prefers_small_l1(self, leakage_design):
        """With flat L1 miss rates, the joint optimum picks the small L1
        (the Section 5 L1 conclusion, now emerging from a joint search)."""
        assert leakage_design.l1_size_kb == 4

    def test_assignments_cover_both_caches(self, leakage_design):
        assert leakage_design.l1_assignment.array is not None
        assert leakage_design.l2_assignment.array is not None

    def test_arrays_conservative(self, leakage_design):
        for assignment in (
            leakage_design.l1_assignment,
            leakage_design.l2_assignment,
        ):
            assert assignment.array.vth >= assignment["decoder"].vth

    def test_describe(self, leakage_design):
        text = leakage_design.describe()
        assert "L1=" in text and "AMAT" in text


class TestEnergyObjective:
    def test_energy_objective_runs(self, miss_model, small_space):
        design = optimize_memory_system(
            miss_model,
            amat_budget=units.ps(2600),
            l1_sizes_kb=(4, 16),
            l2_sizes_kb=(256, 1024),
            objective=OBJECTIVE_ENERGY,
            space=small_space,
        )
        assert design.total_energy > 0

    def test_energy_optimum_no_worse_on_energy(self, miss_model,
                                               small_space, leakage_design):
        energy_design = optimize_memory_system(
            miss_model,
            amat_budget=units.ps(2600),
            l1_sizes_kb=(4, 16),
            l2_sizes_kb=(256, 1024),
            objective=OBJECTIVE_ENERGY,
            space=small_space,
        )
        assert energy_design.total_energy <= leakage_design.total_energy * (
            1 + 1e-9
        )


class TestConstraints:
    def test_tighter_budget_never_reduces_leakage(self, miss_model,
                                                  small_space):
        loose = optimize_memory_system(
            miss_model,
            amat_budget=units.ps(3200),
            l1_sizes_kb=(16,),
            l2_sizes_kb=(512,),
            space=small_space,
        )
        tight = optimize_memory_system(
            miss_model,
            amat_budget=units.ps(2200),
            l1_sizes_kb=(16,),
            l2_sizes_kb=(512,),
            space=small_space,
        )
        assert tight.total_leakage >= loose.total_leakage * (1 - 1e-9)

    def test_impossible_budget_raises(self, miss_model, small_space):
        with pytest.raises(OptimizationError):
            optimize_memory_system(
                miss_model,
                amat_budget=units.ps(1),
                l1_sizes_kb=(16,),
                l2_sizes_kb=(512,),
                space=small_space,
            )

    def test_unknown_objective_raises(self, miss_model, small_space):
        with pytest.raises(OptimizationError):
            optimize_memory_system(
                miss_model,
                amat_budget=units.ps(2600),
                objective="speed",
                space=small_space,
            )

    @pytest.mark.parametrize("fill_factor", [-1.0, float("nan")])
    def test_bad_fill_factor_raises(self, miss_model, small_space,
                                    fill_factor):
        with pytest.raises(ConfigurationError, match="fill_factor"):
            optimize_memory_system(
                miss_model,
                amat_budget=units.ps(2600),
                fill_factor=fill_factor,
                space=small_space,
            )


class TestBlendedWorkloadDefaultGrid:
    """The Section 5 conclusions emerge from the joint search on the
    default grid over 4 x 4 capacities — they are not imposed."""

    @pytest.fixture(scope="class")
    def designs(self):
        miss_model = blended_miss_model()
        return {
            objective: optimize_memory_system(
                miss_model,
                amat_budget=units.ps(2800),
                l1_sizes_kb=(4, 8, 16, 32),
                l2_sizes_kb=(256, 512, 1024, 2048),
                objective=objective,
            )
            for objective in (OBJECTIVE_LEAKAGE, OBJECTIVE_ENERGY)
        }

    def test_small_l1_wins(self, designs):
        assert designs[OBJECTIVE_LEAKAGE].l1_size_kb <= 8

    def test_arrays_conservative_in_both_caches(self, designs):
        design = designs[OBJECTIVE_LEAKAGE]
        for assignment in (design.l1_assignment, design.l2_assignment):
            assert assignment.array.vth >= assignment["decoder"].vth

    def test_energy_objective_never_loses_on_energy(self, designs):
        assert designs[OBJECTIVE_ENERGY].total_energy <= (
            designs[OBJECTIVE_LEAKAGE].total_energy * (1 + 1e-9)
        )
