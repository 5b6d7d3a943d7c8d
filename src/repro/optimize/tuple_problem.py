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
   the picked values define a *pair subset* of at most k x m (Vth, Tox)
   grid points;
2. prune each component's candidates to their (delay, leakage,
   dynamic-energy) Pareto set within every pair subset at once, one
   boolean matrix product per component (:func:`_subset_fronts`); then
   sum a subset's component fronts into whole-cache assignments one
   component at a time, pruning the partial sums after each step.
   Dominated cache assignments can never appear in a system optimum
   because AMAT and total energy are both monotone in all three.
   Before each prune, partial sums that cannot reach the budget's
   running front are dropped (step 4);
3. combine each subset's L1 options x L2 options into system (AMAT,
   total energy) points using the Section 5 energy metric;
4. the budget's curve is the Pareto front of all points over all value
   choices.  Budgets are solved in ascending k x m, each seeded with the
   front of the solved budgets it contains (no more values of either
   knob, so every seed point is achievable under it), and the front is
   extended after every subset (:func:`_extend_front`), so each subset
   is bounded against the newest front.  A subset's *corner* per cache
   is its component column minima summed in component order; a subset
   whose (L1 corner, L2 corner) system point the front weakly dominates
   is skipped whole.  A partial sum's bound is the row plus the
   remaining components' minima, added one at a time in component
   order, combined with the other cache's corner; a row whose bound the
   front weakly dominates is dropped.  Exact: costs, miss rates,
   ``fill_factor`` and the memory terms are finite and ``>= 0``, so
   every system cost is non-decreasing in every cache cost, and IEEE
   ``+`` and ``*`` round monotonically, so a bound computed in the
   same operation order is ``<=`` every completion on both axes.  A
   weakly dominated point cannot change the front's values.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import OptimizationError
from repro.archsim.missmodel import MissRateModel
from repro.cache.assignment import COMPONENT_NAMES
from repro.energy.dynamic import MainMemoryModel, check_energy_input
from repro.optimize.pareto import pareto_indices, pareto_indices_2d
from repro.optimize.single_cache import component_tables
from repro.optimize.space import DesignSpace, coarse_space


@dataclass(frozen=True)
class TupleBudget:
    """A process budget of ``n_tox`` oxides and ``n_vth`` thresholds."""

    n_tox: int
    n_vth: int

    def __post_init__(self) -> None:
        for count in (self.n_tox, self.n_vth):
            # bool is an Integral subclass but never a count.
            if isinstance(count, bool) or not isinstance(
                count, numbers.Integral
            ):
                raise OptimizationError(
                    f"budget counts must be integers, got "
                    f"({self.n_tox!r}, {self.n_vth!r})"
                )
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
    """Pareto-pruned whole-cache assignment costs for one pair subset."""

    delays: np.ndarray
    leakages: np.ndarray
    energies: np.ndarray


def _stacked_costs(tables: Dict[str, object]) -> List[np.ndarray]:
    """Stack each component's (delay, leakage, energy) columns once.

    Returns one ``(n_points, 3)`` contiguous matrix per component, in
    :data:`COMPONENT_NAMES` order.
    """
    return [
        np.ascontiguousarray(
            np.column_stack(
                [tables[name].delays, tables[name].leakages, tables[name].energies]
            )
        )
        for name in COMPONENT_NAMES
    ]


def _pair_subsets(
    budget: TupleBudget, n_vth: int, n_tox: int
) -> List[Tuple[int, ...]]:
    """Every pair subset of one budget, as ascending grid point indices.

    Point index layout from :meth:`DesignSpace.points`:
    ``index = i_vth * n_tox + j_tox``.
    """
    return [
        tuple(i * n_tox + j for i in vth_ids for j in tox_ids)
        for vth_ids in combinations(range(n_vth), budget.n_vth)
        for tox_ids in combinations(range(n_tox), budget.n_tox)
    ]


def _subset_fronts(
    stacked: List[np.ndarray], members: np.ndarray
) -> List[np.ndarray]:
    """Every pair subset's per-component Pareto set, one product each.

    ``members`` is an ``(n_subsets, n_points)`` boolean matrix of the grid
    points each subset allows.  For one component's ``(n_points, 3)``
    costs, ``covers[j, i]`` holds iff point j is ``<=`` point i on every
    cost and ``<`` on some, or equal to it with ``j < i``: exactly the
    rule of :func:`~repro.optimize.pareto.pareto_indices`, under which a
    row survives iff no other row covers it and duplicates keep their
    smallest index.  So ``members & ~(members @ covers)`` marks every
    subset's component front at once, the same index sets
    ``pareto_indices`` picks subset by subset.  Returns one such
    ``(n_subsets, n_points)`` matrix per component.

    Costs must be finite and ``>= 0``: the bounds of
    :func:`solve_tuple_problem` rest on every system cost being
    non-decreasing in every cache cost, and NaN has no order at all.
    """
    n = members.shape[1]
    # earlier[j, i]: j < i, the duplicate tie-break.
    earlier = np.triu(np.ones((n, n), dtype=bool), k=1)
    fronts = []
    for costs in stacked:
        if not (np.isfinite(costs) & (costs >= 0)).all():
            raise OptimizationError(
                "costs must be finite and >= 0 (found NaN, infinite or "
                "negative entries)"
            )
        weak = np.ones((n, n), dtype=bool)
        strict = earlier.copy()
        for column in costs.T:
            weak &= column[:, None] <= column
            strict |= column[:, None] < column
        fronts.append(members & ~(members @ (weak & strict)))
    return fronts


def _subset_minima(
    stacked: List[np.ndarray], fronts: List[np.ndarray]
) -> np.ndarray:
    """Every subset's per-component column minima,
    ``(n_subsets, n_components, 3)``.

    A column's minimum over a subset is reached on its front, so these
    are also the minima over the whole subset.
    """
    return np.stack(
        [
            np.where(front[:, :, None], costs, np.inf).min(axis=1)
            for costs, front in zip(stacked, fronts)
        ],
        axis=1,
    )


def _corners(minima: np.ndarray) -> np.ndarray:
    """Each subset's cache corner, ``(n_subsets, 3)``: the component
    minima summed in :data:`COMPONENT_NAMES` order, the order every
    option is summed in, so no option is below it on any cost."""
    corner = minima[:, 0]
    for component in range(1, minima.shape[1]):
        corner = corner + minima[:, component]
    return corner


def _cache_options(
    stacked: List[np.ndarray],
    fronts: List[np.ndarray],
    row: int,
    minima: np.ndarray,
    dominated,
) -> Optional[_CacheOptions]:
    """Sum one subset's component fronts into pruned whole-cache options.

    Components are combined one at a time, pruning the partial sums after
    each step.  Exact because all three whole-cache costs are additive
    over components: a dominated partial sum stays dominated whatever the
    remaining components add.  The intermediate fronts stay small, so
    this never materialises the full ``n^4`` product.

    Unless ``dominated`` (a mask function of whole-cache lower-bound
    rows) is ``None``, each partial-sum row is first bounded: the
    remaining components' rows of ``minima`` (the subset's
    ``(n_components, 3)`` minima) are added to it one at a time in
    component order, as its completions are summed, so the bound is
    below every completion on every cost.  Rows whose bound
    ``dominated`` marks are dropped before the prune; returns ``None``
    if none is left.
    """
    costs = None
    for step, (component_costs, front) in enumerate(zip(stacked, fronts)):
        subset = component_costs[front[row]]
        if costs is None:
            costs = subset
            continue
        costs = (costs[:, None, :] + subset[None, :, :]).reshape(-1, 3)
        if dominated is not None:
            bound = costs
            for rest in minima[step + 1:]:
                bound = bound + rest
            costs = costs[~dominated(bound)]
            if not len(costs):
                return None
        costs = costs[pareto_indices(costs)]
    return _CacheOptions(
        delays=np.ascontiguousarray(costs[:, 0]),
        leakages=np.ascontiguousarray(costs[:, 1]),
        energies=np.ascontiguousarray(costs[:, 2]),
    )


def _system_costs(l1, l2, m1, m2, memory: MainMemoryModel, fill_factor):
    """(AMAT, total energy) of L1 (delay, leakage, energy) costs against
    L2 costs; the six arrays broadcast together.

    Non-decreasing in every cache cost when the costs, miss rates,
    ``fill_factor`` and memory terms are ``>= 0``, also under IEEE
    rounding: every step is a ``+`` or a ``*`` of non-negative operands.
    """
    l1_delays, l1_leakages, l1_energies = l1
    l2_delays, l2_leakages, l2_energies = l2
    amat = l1_delays + m1 * (l2_delays + m2 * memory.latency)
    # Dynamic energy per reference (see DynamicEnergyModel):
    #   E = EL1 (1 + f m1) + EL2 m1 (1 + f m2) + m1 m2 Emem.
    dynamic = (
        l1_energies * (1.0 + fill_factor * m1)
        + l2_energies * (m1 * (1.0 + fill_factor * m2))
        + m1 * m2 * memory.energy_per_access
    )
    return amat, dynamic + (l1_leakages + l2_leakages) * amat


def _combine_system(
    l1: _CacheOptions,
    l2: _CacheOptions,
    m1: float,
    m2: float,
    memory: MainMemoryModel,
    fill_factor: float,
) -> np.ndarray:
    """Return (n_l1 * n_l2, 2) [AMAT, total energy] points."""
    amat, total = _system_costs(
        (l1.delays[:, None], l1.leakages[:, None], l1.energies[:, None]),
        (l2.delays[None, :], l2.leakages[None, :], l2.energies[None, :]),
        m1, m2, memory, fill_factor,
    )
    return np.column_stack([amat.ravel(), total.ravel()])


def _covered(front: np.ndarray, amats, energies) -> np.ndarray:
    """Mask of the (AMAT, energy) points ``front`` weakly dominates.

    ``front`` is a 2-D Pareto front sorted by ascending AMAT, so its
    energies descend: the front point with the largest AMAT ``<=`` a
    point's has the least energy of all front points at least as fast,
    and one ``searchsorted`` finds it.
    """
    at = np.searchsorted(front[:, 0], amats, side="right") - 1
    return (at >= 0) & (front[np.maximum(at, 0), 1] <= energies)


def _extend_front(front: np.ndarray, cloud: np.ndarray) -> np.ndarray:
    """Return the (AMAT, energy) front of ``front`` plus ``cloud``.

    ``front`` is sorted by ascending AMAT, and so is the result.  The
    cloud points it weakly dominates (:func:`_covered`) are dropped
    before the one 2-D prune.
    """
    if len(front):
        cloud = cloud[~_covered(front, cloud[:, 0], cloud[:, 1])]
    merged = np.vstack([front, cloud])
    merged = merged[pareto_indices_2d(merged)]
    return merged[np.argsort(merged[:, 0], kind="stable")]


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
    combinatorial in the axis lengths.  The returned dict keeps the
    order of ``budgets``; a repeated budget is solved once.
    """
    check_energy_input("fill_factor", fill_factor)
    if space is None:
        space = coarse_space(technology=l1_model.technology)
    n_vth = len(space.vth_values)
    n_tox = len(space.tox_values_angstrom)
    for budget in budgets:
        if budget.n_vth > n_vth or budget.n_tox > n_tox:
            raise OptimizationError(
                f"budget {budget.label} exceeds the grid "
                f"({n_vth} Vth x {n_tox} Tox values)"
            )
    # Ascending pair count puts every budget after the budgets it contains.
    ordered = sorted(
        set(budgets), key=lambda b: (b.n_pairs, b.n_tox, b.n_vth)
    )
    groups = [_pair_subsets(budget, n_vth, n_tox) for budget in ordered]
    members = np.zeros(
        (sum(len(group) for group in groups), n_vth * n_tox), dtype=bool
    )
    for row, pairs in enumerate(pairs for group in groups for pairs in group):
        members[row, pairs] = True

    m1 = miss_model.l1_miss_rate(l1_model.config.size_bytes)
    m2 = miss_model.l2_local_miss_rate(l2_model.config.size_bytes)
    # The bounds need every system cost monotone in every cache cost.
    check_energy_input("l1 miss rate", m1)
    check_energy_input("l2 miss rate", m2)
    l1_stacked = _stacked_costs(component_tables(l1_model, space))
    l2_stacked = _stacked_costs(component_tables(l2_model, space))
    l1_fronts = _subset_fronts(l1_stacked, members)
    l2_fronts = _subset_fronts(l2_stacked, members)
    l1_minima = _subset_minima(l1_stacked, l1_fronts)
    l2_minima = _subset_minima(l2_stacked, l2_fronts)
    l1_corners = _corners(l1_minima)
    l2_corners = _corners(l2_minima)

    def system(l1, l2):
        return _system_costs(l1, l2, m1, m2, memory, fill_factor)

    solved: Dict[TupleBudget, np.ndarray] = {}
    end = 0
    for budget, group in zip(ordered, groups):
        contained = [
            front for other, front in solved.items()
            if other.n_tox <= budget.n_tox and other.n_vth <= budget.n_vth
        ]
        front = np.empty((0, 2))
        if contained:
            front = _extend_front(front, np.vstack(contained))
        start, end = end, end + len(group)
        for row in range(start, end):
            l1_corner, l2_corner = l1_corners[row], l2_corners[row]
            bounded = len(front) > 0
            if bounded and _covered(front, *system(l1_corner, l2_corner)):
                continue
            l1 = _cache_options(
                l1_stacked, l1_fronts, row, l1_minima[row],
                (lambda rows: _covered(front, *system(rows.T, l2_corner)))
                if bounded else None,
            )
            if l1 is None:
                continue
            l2 = _cache_options(
                l2_stacked, l2_fronts, row, l2_minima[row],
                (lambda rows: _covered(front, *system(l1_corner, rows.T)))
                if bounded else None,
            )
            if l2 is None:
                continue
            front = _extend_front(
                front,
                _combine_system(l1, l2, m1, m2, memory, fill_factor),
            )
        solved[budget] = front
    return {
        budget: TupleCurve(
            budget=budget,
            amats=np.ascontiguousarray(solved[budget][:, 0]),
            energies=np.ascontiguousarray(solved[budget][:, 1]),
        )
        for budget in budgets
    }


def curve_ordering_at(
    curves: Dict[TupleBudget, TupleCurve], amat_budget: float
) -> List[Tuple[TupleBudget, float]]:
    """Rank budgets by achievable energy at one AMAT budget (best first)."""
    ranked = sorted(
        ((budget, curve.energy_at(amat_budget)) for budget, curve in curves.items()),
        key=lambda item: item[1],
    )
    return ranked
