"""Joint capacity + knob optimisation of the whole memory system.

Section 5 explores one variable at a time: L2 capacity under fixed L1,
L1 capacity under fixed L2, knobs under fixed capacities.  This module
closes the loop the paper stops short of: search the cross product of
(L1 capacity) x (L2 capacity) x (Scheme II knob assignments for both
caches) for the design minimising either total leakage or the Figure 2
total-energy metric under an AMAT budget.

The search stays exact and tractable the same way the Section 4 solver
does: per-cache candidates are pruned to their (delay, leakage, dynamic
energy) Pareto sets before the cross product, which cannot exclude any
optimum of a metric monotone in all three.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.archsim.missmodel import MissRateModel
from repro.cache.cache_model import CacheModel
from repro.cache.config import l1_config, l2_config
from repro.energy.dynamic import MainMemoryModel, check_energy_input
from repro.errors import OptimizationError
from repro.optimize.pareto import pareto_indices
from repro.optimize.schemes import Scheme
from repro.optimize.single_cache import enumerate_candidates
from repro.optimize.space import DesignSpace, default_space
from repro.technology.bptm import Technology, bptm65

#: Objectives the joint search can minimise.
OBJECTIVE_LEAKAGE = "leakage"
OBJECTIVE_ENERGY = "energy"
_OBJECTIVES = (OBJECTIVE_LEAKAGE, OBJECTIVE_ENERGY)


@dataclass(frozen=True)
class JointDesign:
    """One fully specified memory-system design point."""

    l1_size_kb: int
    l2_size_kb: int
    l1_assignment: object
    l2_assignment: object
    amat: float
    total_leakage: float
    total_energy: float

    def describe(self) -> str:
        return (
            f"L1={self.l1_size_kb}K, L2={self.l2_size_kb}K, "
            f"AMAT={self.amat * 1e12:.0f} ps, "
            f"leakage={self.total_leakage * 1e3:.3f} mW, "
            f"energy={self.total_energy * 1e12:.1f} pJ/ref"
        )


@dataclass(frozen=True)
class _CacheCandidates:
    """Pruned per-cache candidates with lazily resolvable assignments."""

    assignments: object
    kept: np.ndarray
    delays: np.ndarray
    leakages: np.ndarray
    energies: np.ndarray


def _pruned_candidates(
    model: CacheModel, space: DesignSpace
) -> _CacheCandidates:
    assignments, delays, leakages = enumerate_candidates(
        model, Scheme.CELL_VS_PERIPHERY, space
    )
    # Dynamic energy of each Scheme II candidate: rebuild from component
    # tables (cell point index i, periphery index j share the space grid).
    from repro.optimize.single_cache import component_tables

    tables = component_tables(model, space)
    cell_energy = tables["array"].energies
    periph_energy = sum(
        tables[name].energies
        for name in tables
        if name != "array"
    )
    energy_grid = cell_energy[:, None] + periph_energy[None, :]
    energies = energy_grid.ravel()

    costs = np.column_stack([delays, leakages, energies])
    kept = pareto_indices(costs)
    return _CacheCandidates(
        assignments=assignments,
        kept=kept,
        delays=delays[kept],
        leakages=leakages[kept],
        energies=energies[kept],
    )


def optimize_memory_system(
    miss_model: MissRateModel,
    amat_budget: float,
    l1_sizes_kb: Sequence[int] = (4, 8, 16, 32, 64),
    l2_sizes_kb: Sequence[int] = (256, 512, 1024, 2048),
    objective: str = OBJECTIVE_LEAKAGE,
    technology: Optional[Technology] = None,
    space: Optional[DesignSpace] = None,
    memory: MainMemoryModel = MainMemoryModel(),
    fill_factor: float = 1.0,
) -> JointDesign:
    """Return the best (capacities, knobs) design under an AMAT budget.

    Parameters
    ----------
    objective:
        ``"leakage"`` minimises standby leakage;
        ``"energy"`` minimises the Figure 2 per-reference total energy.

    Raises
    ------
    OptimizationError
        If the objective is unknown or no design meets the budget.
    ConfigurationError
        If ``fill_factor`` is negative or not finite.
    """
    if objective not in _OBJECTIVES:
        raise OptimizationError(
            f"unknown objective {objective!r}; expected one of {_OBJECTIVES}"
        )
    check_energy_input("fill_factor", fill_factor)
    technology = technology if technology is not None else bptm65()
    if space is None:
        space = default_space(vth_step=0.05, tox_step=1.0)

    best: Optional[JointDesign] = None
    for l1_kb in l1_sizes_kb:
        l1_model = CacheModel(l1_config(l1_kb), technology=technology)
        l1_candidates = _pruned_candidates(l1_model, space)
        m1 = miss_model.l1_miss_rate(l1_model.config.size_bytes)
        for l2_kb in l2_sizes_kb:
            l2_model = CacheModel(l2_config(l2_kb), technology=technology)
            l2_candidates = _pruned_candidates(l2_model, space)
            m2 = miss_model.l2_local_miss_rate(l2_model.config.size_bytes)

            amat = l1_candidates.delays[:, None] + m1 * (
                l2_candidates.delays[None, :] + m2 * memory.latency
            )
            leakage = (
                l1_candidates.leakages[:, None]
                + l2_candidates.leakages[None, :]
            )
            dynamic = (
                l1_candidates.energies[:, None] * (1.0 + fill_factor * m1)
                + l2_candidates.energies[None, :]
                * (m1 * (1.0 + fill_factor * m2))
                + m1 * m2 * memory.energy_per_access
            )
            energy = dynamic + leakage * amat
            feasible = amat <= amat_budget
            if not np.any(feasible):
                continue
            score = leakage if objective == OBJECTIVE_LEAKAGE else energy
            masked = np.where(feasible, score, np.inf)
            flat = int(np.argmin(masked))
            i, j = np.unravel_index(flat, masked.shape)
            candidate = JointDesign(
                l1_size_kb=l1_kb,
                l2_size_kb=l2_kb,
                l1_assignment=l1_candidates.assignments[
                    int(l1_candidates.kept[i])
                ],
                l2_assignment=l2_candidates.assignments[
                    int(l2_candidates.kept[j])
                ],
                amat=float(amat[i, j]),
                total_leakage=float(leakage[i, j]),
                total_energy=float(energy[i, j]),
            )
            current = (
                candidate.total_leakage
                if objective == OBJECTIVE_LEAKAGE
                else candidate.total_energy
            )
            incumbent = (
                None
                if best is None
                else (
                    best.total_leakage
                    if objective == OBJECTIVE_LEAKAGE
                    else best.total_energy
                )
            )
            if incumbent is None or current < incumbent:
                best = candidate
    if best is None:
        raise OptimizationError(
            f"no (L1, L2, knobs) design meets AMAT <= {amat_budget:.3e} s"
        )
    return best
