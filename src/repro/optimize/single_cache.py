"""Section 4: single-cache leakage minimisation under a delay constraint.

The problem::

    minimise    LeakagePower(Vth_1, Tox_1, ..., Vth_4, Tox_4)
    subject to  Td(...) <= T_max,   10 Å <= Tox_i <= 14 Å,
                0.2 V <= Vth_i <= 0.5 V

over a discrete grid, for each of the three schemes.  Both objective and
constraint are sums over the four components, so the solver works on
per-component evaluation tables:

* Scheme III scans the grid once;
* Scheme II scans (cell point) x (periphery point) pairs;
* Scheme I first prunes each component's candidates to its own
  (delay, leakage) Pareto front — a dominated component choice can never
  appear in any optimum of an additive objective/constraint — then finds
  the optimum on a staged front of partial sums and its tie-break by a
  bounded pass over the pruned product, which it never materialises.
  This is exact, not heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import units
from repro.errors import InfeasibleConstraintError, OptimizationError
from repro.cache.assignment import (
    Assignment,
    COMPONENT_NAMES,
    Knobs,
    PERIPHERAL_COMPONENTS,
)
from repro.optimize.pareto import pareto_indices, pareto_indices_2d
from repro.optimize.schemes import Scheme
from repro.optimize.space import DesignSpace, default_space


@dataclass(frozen=True)
class SingleCacheResult:
    """Outcome of one constrained minimisation."""

    scheme: Scheme
    assignment: Assignment
    access_time: float
    leakage_power: float
    delay_constraint: float

    @property
    def slack(self) -> float:
        """Unused delay budget (s)."""
        return self.delay_constraint - self.access_time


@dataclass(frozen=True)
class _ComponentTable:
    """All grid evaluations of one component."""

    name: str
    points: Tuple[Knobs, ...]
    delays: np.ndarray
    leakages: np.ndarray
    energies: np.ndarray

    def pruned(self) -> "_ComponentTable":
        """Return only the (delay, leakage) Pareto-minimal candidates.

        Exact for the Section 4 problem (leakage objective, delay
        constraint); the tuple problem prunes on three axes itself.
        """
        costs = np.column_stack([self.delays, self.leakages])
        keep = pareto_indices(costs)
        return _ComponentTable(
            name=self.name,
            points=tuple(self.points[i] for i in keep),
            delays=self.delays[keep],
            leakages=self.leakages[keep],
            energies=self.energies[keep],
        )


def _compute_component_tables(
    model, space: DesignSpace
) -> Dict[str, _ComponentTable]:
    """Evaluate every component of ``model`` over the whole grid (uncached)."""
    points = space.point_list()
    vths = np.asarray(space.vth_values, dtype=float)
    toxes = np.array([units.angstrom(a) for a in space.tox_values_angstrom])
    tables: Dict[str, _ComponentTable] = {}
    for name in COMPONENT_NAMES:
        component = model.components[name]
        if hasattr(component, "evaluate_grid"):
            # point_list() iterates Vth-major, so the (n_vth, n_tox) grids
            # ravel straight into flat-index order i_vth * n_tox + j_tox.
            delay_grid, leak_grid, energy_grid = component.evaluate_grid(
                vths, toxes
            )
            delays = np.ascontiguousarray(delay_grid.ravel())
            leakages = np.ascontiguousarray(leak_grid.ravel())
            energies = np.ascontiguousarray(energy_grid.ravel())
        else:
            delays = np.empty(len(points))
            leakages = np.empty(len(points))
            energies = np.empty(len(points))
            for index, point in enumerate(points):
                cost = component.evaluate(point.vth, point.tox)
                delays[index] = cost.delay
                leakages[index] = cost.leakage_power
                energies[index] = cost.dynamic_energy
        tables[name] = _ComponentTable(
            name=name,
            points=points,
            delays=delays,
            leakages=leakages,
            energies=energies,
        )
    return tables


def component_tables(
    model, space: Optional[DesignSpace] = None, use_cache: bool = True
) -> Dict[str, _ComponentTable]:
    """Evaluate every component of ``model`` over the whole grid.

    Results are memoised process-wide by the structural fingerprint of
    (model, space) — see :mod:`repro.perf.table_cache`.  Pass
    ``use_cache=False`` to force a fresh evaluation.
    """
    from repro.perf.table_cache import cached_tables

    if space is None:
        space = default_space(technology=model.technology)
    return cached_tables(
        model, space, _compute_component_tables, use_cache=use_cache
    )


class _LazyAssignments:
    """List-like view materialising Assignments only on indexing.

    Scheme II's candidate product runs to ~10^4 entries; building an
    Assignment object per entry would dominate runtime, and the
    optimisers only ever look at a handful of winners.
    """

    def __init__(self, point_lists: Tuple[Tuple[Knobs, ...], ...], builder):
        self._point_lists = point_lists
        self._builder = builder
        self._shape = tuple(len(points) for points in point_lists)
        self._size = 1
        for extent in self._shape:
            self._size *= extent

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, flat_index: int) -> Assignment:
        if not 0 <= flat_index < self._size:
            raise IndexError(flat_index)
        coordinates = np.unravel_index(flat_index, self._shape)
        chosen = tuple(
            self._point_lists[axis][coordinate]
            for axis, coordinate in enumerate(coordinates)
        )
        return self._builder(*chosen)


def _candidate_matrix_scheme3(
    tables: Dict[str, _ComponentTable]
) -> Tuple[_LazyAssignments, np.ndarray, np.ndarray]:
    points = tables["array"].points
    delays = sum(tables[name].delays for name in COMPONENT_NAMES)
    leakages = sum(tables[name].leakages for name in COMPONENT_NAMES)
    assignments = _LazyAssignments((points,), Assignment.uniform)
    return assignments, delays, leakages


def _candidate_matrix_scheme2(
    tables: Dict[str, _ComponentTable]
) -> Tuple[_LazyAssignments, np.ndarray, np.ndarray]:
    points = tables["array"].points
    periph_delays = sum(tables[name].delays for name in PERIPHERAL_COMPONENTS)
    periph_leaks = sum(tables[name].leakages for name in PERIPHERAL_COMPONENTS)
    cell_delays = tables["array"].delays
    cell_leaks = tables["array"].leakages
    # Outer sums over (cell index, periphery index).
    delay_grid = cell_delays[:, None] + periph_delays[None, :]
    leak_grid = cell_leaks[:, None] + periph_leaks[None, :]
    assignments = _LazyAssignments(
        (points, points),
        lambda cell, periphery: Assignment.split(cell=cell, periphery=periphery),
    )
    return assignments, delay_grid.ravel(), leak_grid.ravel()


_SCHEME_BUILDERS = {
    Scheme.UNIFORM: _candidate_matrix_scheme3,
    Scheme.CELL_VS_PERIPHERY: _candidate_matrix_scheme2,
}


def enumerate_candidates(
    model,
    scheme: Scheme,
    space: Optional[DesignSpace] = None,
    tables: Optional[Dict[str, _ComponentTable]] = None,
) -> Tuple[_LazyAssignments, np.ndarray, np.ndarray]:
    """Return (assignments, total delays, total leakages) for Scheme II/III.

    Scheme I's four-table product is never materialised.
    """
    if tables is None:
        tables = component_tables(model, space)
    try:
        builder = _SCHEME_BUILDERS[scheme]
    except KeyError:
        raise OptimizationError(
            f"no candidate list for scheme {scheme!r} (Scheme I: use "
            "minimize_leakage or leakage_delay_frontier)"
        )
    return builder(tables)


def _staged_front(
    tables: Dict[str, _ComponentTable], prune_last: bool
) -> Tuple[Tuple[_ComponentTable, ...], np.ndarray, np.ndarray]:
    """Scheme I phase 1: (pruned tables, staged-front delays, leakages).

    Adds the pruned tables in ``((a+d)+r)+o`` order, keeping the 2-D
    front after each add (after the last too if ``prune_last``).  IEEE
    addition is monotone in each operand, so this holds the product's
    exact least delay, least leakage under any delay bound and, pruned,
    its exact front values (docs/PERFORMANCE.md, "Scheme I search").
    """
    components = tuple(tables[name].pruned() for name in COMPONENT_NAMES)
    delays, leakages = components[0].delays, components[0].leakages
    for stage, table in enumerate(components[1:], start=2):
        delays = (delays[:, None] + table.delays).ravel()
        leakages = (leakages[:, None] + table.leakages).ravel()
        if prune_last or stage < len(components):
            keep = pareto_indices_2d(np.column_stack([delays, leakages]))
            delays, leakages = delays[keep], leakages[keep]
    return components, delays, leakages


def _first_attaining(
    components: Tuple[_ComponentTable, ...], max_delay: float, leakage: float
) -> Tuple[Assignment, float]:
    """Scheme I phase 2: the smallest flat index meeting ``max_delay``
    with ``leakage``, the least leakage there; returns (its assignment,
    its delay).

    Prefixes grow in flat-index order ``flat * n_k + j`` and are kept
    while their lower bound (each later table's minimum added in the
    same order, so rounding cannot break it) meets both limits.
    """
    flat = np.zeros(1, dtype=np.intp)
    delays = leakages = np.zeros(1)  # 0.0 + x == x: the oracle's sums
    for level, table in enumerate(components):
        size = len(table.delays)
        flat = (flat[:, None] * size + np.arange(size)).ravel()
        delays = (delays[:, None] + table.delays).ravel()
        leakages = (leakages[:, None] + table.leakages).ravel()
        bound_delays, bound_leakages = delays, leakages
        for later in components[level + 1:]:
            bound_delays = bound_delays + later.delays.min()
            bound_leakages = bound_leakages + later.leakages.min()
        keep = (bound_delays <= max_delay) & (bound_leakages <= leakage)
        flat, delays, leakages = flat[keep], delays[keep], leakages[keep]
    coordinates = np.unravel_index(
        flat[0], tuple(len(table.points) for table in components)
    )
    return Assignment.from_mapping(
        {
            table.name: table.points[coordinate]
            for table, coordinate in zip(components, coordinates)
        }
    ), float(delays[0])


def minimize_leakage(
    model,
    scheme: Scheme,
    max_access_time: float,
    space: Optional[DesignSpace] = None,
    tables: Optional[Dict[str, _ComponentTable]] = None,
) -> SingleCacheResult:
    """Minimise cache leakage subject to ``access_time <= max_access_time``.

    Returns the feasible candidate of least leakage and, among equal
    leakages, of smallest flat index (Scheme I: in the pruned product).
    Raises :class:`InfeasibleConstraintError` (carrying the fastest
    achievable access time) if no grid point meets the constraint.
    """
    if tables is None:
        tables = component_tables(model, space)
    per_component = scheme == Scheme.PER_COMPONENT
    if per_component:
        components, delays, leakages = _staged_front(tables, prune_last=False)
    else:
        assignments, delays, leakages = enumerate_candidates(
            model, scheme, space, tables
        )
    feasible = delays <= max_access_time
    if not np.any(feasible):
        raise InfeasibleConstraintError(
            f"{scheme.paper_name}: no assignment meets "
            f"T <= {max_access_time:.3e} s (fastest is {delays.min():.3e} s)",
            best_achievable=float(delays.min()),
        )
    if per_component:
        leakage = float(leakages[feasible].min())
        assignment, access_time = _first_attaining(
            components, max_access_time, leakage
        )
    else:
        best = int(np.argmin(np.where(feasible, leakages, np.inf)))
        assignment = assignments[best]
        access_time, leakage = float(delays[best]), float(leakages[best])
    return SingleCacheResult(
        scheme=scheme,
        assignment=assignment,
        access_time=access_time,
        leakage_power=leakage,
        delay_constraint=max_access_time,
    )


def leakage_delay_frontier(
    model,
    scheme: Scheme,
    space: Optional[DesignSpace] = None,
    tables: Optional[Dict[str, _ComponentTable]] = None,
) -> Tuple[np.ndarray, np.ndarray, List[Assignment]]:
    """Return the scheme's full (delay, leakage) Pareto front, ascending.

    This is the curve the Section 4 scheme comparison plots: for every
    achievable delay, the least leakage the scheme can offer.  Each
    point's assignment is the smallest flat index holding it.  Scheme I
    runs one phase-2 pass per point (~90 ms for the 496 points of the
    65 nm 16 KB L1, 2-core host); only tests call this, and nothing
    rests on its speed.
    """
    if tables is None:
        tables = component_tables(model, space)
    if scheme == Scheme.PER_COMPONENT:
        components, delays, leakages = _staged_front(tables, prune_last=True)
        order = np.argsort(delays, kind="stable")
        return delays[order], leakages[order], [
            _first_attaining(components, delays[i], leakages[i])[0]
            for i in order
        ]
    assignments, delays, leakages = enumerate_candidates(
        model, scheme, space, tables
    )
    costs = np.column_stack([delays, leakages])
    keep = pareto_indices(costs)
    order = keep[np.argsort(delays[keep], kind="stable")]
    return (
        delays[order],
        leakages[order],
        [assignments[i] for i in order],
    )


def fixed_knob_sweep(
    model,
    fixed_vth: Optional[float] = None,
    fixed_tox_angstrom: Optional[float] = None,
    space: Optional[DesignSpace] = None,
) -> Tuple[np.ndarray, np.ndarray, List[Knobs]]:
    """Sweep one knob with the other fixed, uniform assignment (Figure 1).

    Exactly one of ``fixed_vth`` / ``fixed_tox_angstrom`` must be given.
    Returns (access times, leakage powers, knob points) along the sweep.
    """
    from repro import units

    if (fixed_vth is None) == (fixed_tox_angstrom is None):
        raise OptimizationError(
            "fix exactly one of Vth / Tox for a Figure 1 sweep"
        )
    if space is None:
        space = default_space(technology=model.technology)
    if fixed_vth is not None:
        points = [
            Knobs(vth=fixed_vth, tox=units.angstrom(tox_a))
            for tox_a in space.tox_values_angstrom
        ]
    else:
        points = [
            Knobs(vth=vth, tox=units.angstrom(fixed_tox_angstrom))
            for vth in space.vth_values
        ]
    times = np.empty(len(points))
    leaks = np.empty(len(points))
    for index, point in enumerate(points):
        evaluation = model.uniform(point)
        times[index] = evaluation.access_time
        leaks[index] = evaluation.leakage_power
    return times, leaks, points
