"""Figure 2: the (#Tox, #Vth) tuple problem.

A real process offers only a handful of distinct oxide thicknesses (each
is an extra growth step) and threshold voltages (each is an extra
implant).  The paper asks: given a budget of *k* Tox values and *m* Vth
values shared across the whole memory system (all four components of L1
and of L2), what is the best achievable total-energy-vs-AMAT curve?

Figure 2 compares the budgets (2,2), (2,3), (3,2), (2,1) and (1,2) and
finds 2 Tox + 3 Vth best, 2 Tox + 2 Vth nearly identical, and — the
headline — 1 Tox + 2 Vth *beating* 2 Tox + 1 Vth, because Vth is the more
effective knob.

Solution method (exact over the discrete grid):

1. enumerate every way to pick the k Tox and m Vth values from the grid;
2. the picked values define at most k x m candidate pairs; enumerate all
   pair-per-component assignments of each cache (at most (k m)^4) with
   vectorised sums, and prune each cache to its (delay, leakage,
   dynamic-energy) Pareto set — dominated cache assignments can never
   appear in a system optimum because AMAT and total energy are both
   monotone in all three;
3. combine L1 options x L2 options into system (AMAT, total energy)
   points using the Section 5 energy metric;
4. the budget's curve is the Pareto front of all points over all value
   choices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import OptimizationError
from repro.archsim.missmodel import MissRateModel
from repro.cache.assignment import COMPONENT_NAMES
from repro.energy.dynamic import MainMemoryModel
from repro.optimize.pareto import pareto_indices, pareto_indices_2d
from repro.optimize.single_cache import component_tables
from repro.optimize.space import DesignSpace, coarse_space


@dataclass(frozen=True)
class TupleBudget:
    """A process budget of ``n_tox`` oxides and ``n_vth`` thresholds."""

    n_tox: int
    n_vth: int

    def __post_init__(self) -> None:
        if self.n_tox < 1 or self.n_vth < 1:
            raise OptimizationError(
                f"budget must allow at least one value per knob, got "
                f"({self.n_tox}, {self.n_vth})"
            )

    @property
    def label(self) -> str:
        """The legend label used in Figure 2, e.g. ``"2 Tox + 3 Vth"``."""
        return f"{self.n_tox} Tox + {self.n_vth} Vth"

    @property
    def n_pairs(self) -> int:
        return self.n_tox * self.n_vth


#: The five budgets Figure 2 plots.
FIGURE2_BUDGETS: Tuple[TupleBudget, ...] = (
    TupleBudget(n_tox=2, n_vth=2),
    TupleBudget(n_tox=2, n_vth=3),
    TupleBudget(n_tox=3, n_vth=2),
    TupleBudget(n_tox=2, n_vth=1),
    TupleBudget(n_tox=1, n_vth=2),
)


@dataclass(frozen=True)
class TupleCurve:
    """One budget's achievable (AMAT, total energy) Pareto front.

    ``amats`` ascend; ``energies`` descend (Pareto property).
    """

    budget: TupleBudget
    amats: np.ndarray
    energies: np.ndarray

    def energy_at(self, amat_budget: float) -> float:
        """Least energy (J) achievable with ``AMAT <= amat_budget``.

        Returns ``inf`` if the budget is faster than anything achievable.
        """
        feasible = self.amats <= amat_budget
        if not np.any(feasible):
            return float("inf")
        return float(self.energies[feasible].min())

    @property
    def n_points(self) -> int:
        return len(self.amats)


@dataclass(frozen=True)
class _CacheOptions:
    """Pareto-pruned whole-cache assignment costs for one pair set."""

    delays: np.ndarray
    leakages: np.ndarray
    energies: np.ndarray


def _stacked_costs(tables: Dict[str, object]) -> List[np.ndarray]:
    """Stack each component's (delay, leakage, energy) columns once.

    Returns one ``(n_points, 3)`` contiguous matrix per component, in
    :data:`COMPONENT_NAMES` order, so the per-pair-set enumeration slices
    rows instead of re-gathering three columns per component every time.
    """
    return [
        np.ascontiguousarray(
            np.column_stack(
                [tables[name].delays, tables[name].leakages, tables[name].energies]
            )
        )
        for name in COMPONENT_NAMES
    ]


def _cache_options_for_pairs(
    tables: Dict[str, object],
    pair_indices: Sequence[int],
    stacked: Optional[List[np.ndarray]] = None,
) -> _CacheOptions:
    """Enumerate and prune all pair-per-component assignments of one cache.

    ``pair_indices`` index into the grid tables' point list.  Each
    component's candidates are first pruned to their own (delay, leakage,
    energy) Pareto set *within the pair set* — exact, because all three
    whole-cache costs are additive over components, so an assignment using
    a dominated component choice is itself dominated by the one using the
    dominator.  That typically collapses the 4-axis product from
    ``n^4`` to a few dozen rows before the final prune.
    """
    if stacked is None:
        stacked = _stacked_costs(tables)
    indices = np.asarray(pair_indices, dtype=int)
    # Combine components one at a time, pruning the partial sums after
    # each step.  Exact for the same additive reason: a dominated partial
    # sum stays dominated whatever the remaining components add.  The
    # intermediate fronts stay small, so this never materialises the full
    # n^4 product.  The first pruned subset is already a front.
    costs = None
    for component_costs in stacked:
        subset = component_costs[indices]
        subset = subset[pareto_indices(subset)]
        if costs is None:
            costs = subset
        else:
            costs = (costs[:, None, :] + subset[None, :, :]).reshape(-1, 3)
            costs = costs[pareto_indices(costs)]
    return _CacheOptions(
        delays=np.ascontiguousarray(costs[:, 0]),
        leakages=np.ascontiguousarray(costs[:, 1]),
        energies=np.ascontiguousarray(costs[:, 2]),
    )


def _combine_system(
    l1: _CacheOptions,
    l2: _CacheOptions,
    m1: float,
    m2: float,
    memory: MainMemoryModel,
    fill_factor: float,
) -> np.ndarray:
    """Return (n_l1 * n_l2, 2) [AMAT, total energy] points."""
    amat = l1.delays[:, None] + m1 * (l2.delays[None, :] + m2 * memory.latency)
    # Dynamic energy per reference (see DynamicEnergyModel):
    #   E = EL1 (1 + f m1) + EL2 m1 (1 + f m2) + m1 m2 Emem.
    dynamic = (
        l1.energies[:, None] * (1.0 + fill_factor * m1)
        + l2.energies[None, :] * (m1 * (1.0 + fill_factor * m2))
        + m1 * m2 * memory.energy_per_access
    )
    total = dynamic + (l1.leakages[:, None] + l2.leakages[None, :]) * amat
    return np.column_stack([amat.ravel(), total.ravel()])


def solve_tuple_problem(
    l1_model,
    l2_model,
    miss_model: MissRateModel,
    budgets: Sequence[TupleBudget] = FIGURE2_BUDGETS,
    space: Optional[DesignSpace] = None,
    memory: MainMemoryModel = MainMemoryModel(),
    fill_factor: float = 1.0,
) -> Dict[TupleBudget, TupleCurve]:
    """Solve the tuple problem for each budget; returns budget -> curve.

    ``space`` defaults to the coarse grid — the value-set enumeration is
    combinatorial in the axis lengths.
    """
    if space is None:
        space = coarse_space(technology=l1_model.technology)
    n_vth = len(space.vth_values)
    n_tox = len(space.tox_values_angstrom)
    m1 = miss_model.l1_miss_rate(l1_model.config.size_bytes)
    m2 = miss_model.l2_local_miss_rate(l2_model.config.size_bytes)

    l1_tables = component_tables(l1_model, space)
    l2_tables = component_tables(l2_model, space)
    l1_stacked = _stacked_costs(l1_tables)
    l2_stacked = _stacked_costs(l2_tables)
    # Budgets can revisit the same pair subset (and callers can pass
    # duplicated budgets); the enumeration is pure in the subset, so the
    # options are memoised by pair-index tuple per cache.
    l1_memo: Dict[Tuple[int, ...], _CacheOptions] = {}
    l2_memo: Dict[Tuple[int, ...], _CacheOptions] = {}

    curves: Dict[TupleBudget, TupleCurve] = {}
    for budget in budgets:
        if budget.n_vth > n_vth or budget.n_tox > n_tox:
            raise OptimizationError(
                f"budget {budget.label} exceeds the grid "
                f"({n_vth} Vth x {n_tox} Tox values)"
            )
        collected: List[np.ndarray] = []
        for vth_ids in combinations(range(n_vth), budget.n_vth):
            for tox_ids in combinations(range(n_tox), budget.n_tox):
                # Point index layout from DesignSpace.points():
                # index = i_vth * n_tox + j_tox.
                pair_indices = tuple(
                    i * n_tox + j for i in vth_ids for j in tox_ids
                )
                l1_options = l1_memo.get(pair_indices)
                if l1_options is None:
                    l1_options = _cache_options_for_pairs(
                        l1_tables, pair_indices, stacked=l1_stacked
                    )
                    l1_memo[pair_indices] = l1_options
                l2_options = l2_memo.get(pair_indices)
                if l2_options is None:
                    l2_options = _cache_options_for_pairs(
                        l2_tables, pair_indices, stacked=l2_stacked
                    )
                    l2_memo[pair_indices] = l2_options
                points = _combine_system(
                    l1_options, l2_options, m1, m2, memory, fill_factor
                )
                keep = pareto_indices_2d(points)
                collected.append(points[keep])
        merged = np.vstack(collected)
        keep = pareto_indices_2d(merged)
        front = merged[keep]
        order = np.argsort(front[:, 0], kind="stable")
        curves[budget] = TupleCurve(
            budget=budget,
            amats=front[order, 0],
            energies=front[order, 1],
        )
    return curves


def curve_ordering_at(
    curves: Dict[TupleBudget, TupleCurve], amat_budget: float
) -> List[Tuple[TupleBudget, float]]:
    """Rank budgets by achievable energy at one AMAT budget (best first)."""
    ranked = sorted(
        ((budget, curve.energy_at(amat_budget)) for budget, curve in curves.items()),
        key=lambda item: item[1],
    )
    return ranked
