"""E5 — Section 5 L1-size exploration.

Fix the L2 (1 MB, conservative knobs), sweep the L1 from 4 K to 64 K, and
minimise total (L1 + L2) leakage under an iso-AMAT budget.  The paper's
reasoning: local L1 miss rates are already very low and barely vary from
4 K to 64 K, so nothing architectural is gained by a big L1 — while a
small L1 both leaks less (fewer cells) and is faster (shorter lines).
Hence the small L1 is the optimum.

With the profile store the sweep is no longer pinned to the paper's
2-way reference shape: ``l1_assocs`` sweeps associativity alongside
capacity (miss curves sliced from the workload's dense surface), and the
"vs size" series reports each capacity's best point over the assoc axis.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro import units
from repro.archsim.missmodel import (
    REFERENCE_L1_ASSOC,
    calibrated_miss_model,
    calibrated_miss_surface,
)
from repro.cache.config import kib_to_bytes
from repro.energy.dynamic import MainMemoryModel
from repro.experiments.report import ExperimentResult
from repro.optimize.space import DesignSpace
from repro.optimize.two_level import explore_l1_sizes
from repro.technology.bptm import Technology

DEFAULT_L1_SIZES_KB = (4, 8, 16, 32, 64)

#: Associativities swept alongside capacity (reference 2-way included so
#: the paper's shape stays in the comparison).
DEFAULT_L1_ASSOCS = (1, 2, 4)

#: Budget multiplier on the slowest per-capacity fastest AMAT, so every
#: capacity is feasible and the comparison is apples-to-apples.
BUDGET_FACTOR = 1.25


def run_l1_exploration(
    workload: str = "spec2000",
    l1_sizes_kb: Sequence[int] = DEFAULT_L1_SIZES_KB,
    l2_size_kb: int = 1024,
    budget_factor: float = BUDGET_FACTOR,
    technology: Optional[Technology] = None,
    space: Optional[DesignSpace] = None,
    memory: MainMemoryModel = MainMemoryModel(),
    l1_assocs: Sequence[int] = DEFAULT_L1_ASSOCS,
) -> ExperimentResult:
    """Sweep L1 capacity (and associativity) under a fixed 1 MB L2."""
    if tuple(l1_assocs) == (REFERENCE_L1_ASSOC,):
        miss_model = calibrated_miss_model(workload)
    else:
        miss_model = calibrated_miss_surface(workload)
    # Probe pass at an unbounded budget: the optimiser then picks each
    # capacity's least-leaky (slowest) point, whose AMAT anchors a taut
    # but attainable budget for the real pass.
    probe = explore_l1_sizes(
        miss_model,
        amat_budget=float("inf"),
        l1_sizes_kb=l1_sizes_kb,
        l2_size_kb=l2_size_kb,
        technology=technology,
        space=space,
        memory=memory,
        l1_assocs=l1_assocs,
    )
    budget = budget_factor * min(point.amat for point in probe)
    points = explore_l1_sizes(
        miss_model,
        amat_budget=budget,
        l1_sizes_kb=l1_sizes_kb,
        l2_size_kb=l2_size_kb,
        technology=technology,
        space=space,
        memory=memory,
        l1_assocs=l1_assocs,
    )

    rows = []
    for point in points:
        rows.append(
            [
                f"{point.size_kb:.0f}",
                f"{point.associativity}",
                f"{point.l1_miss_rate:.4f}",
                "yes" if point.feasible else "NO",
                f"{units.to_ps(point.amat):.0f}",
                f"{units.to_mw(point.varied_leakage):.4f}"
                if point.feasible
                else "-",
                f"{units.to_mw(point.total_leakage):.3f}"
                if point.feasible
                else "-",
            ]
        )

    # "vs size" series: collapse the assoc axis to each capacity's best
    # (least total leakage among feasible shapes).
    series_x, series_y = [], []
    for size_kb in l1_sizes_kb:
        candidates = [
            p
            for p in points
            if p.feasible and p.size_bytes == kib_to_bytes(size_kb)
        ]
        if candidates:
            series_x.append(float(size_kb))
            series_y.append(
                units.to_mw(min(p.total_leakage for p in candidates))
            )

    feasible = [p for p in points if p.feasible]
    findings = [
        f"AMAT budget {units.to_ps(budget):.0f} ps "
        f"({budget_factor:.2f} x best achievable)"
    ]
    miss_rates = [p.l1_miss_rate for p in points]
    if miss_rates:
        spread = max(miss_rates) - min(miss_rates)
        findings.append(
            f"L1 local miss rates span only "
            f"{100 * spread:.2f} percentage points from "
            f"{min(l1_sizes_kb)}K to {max(l1_sizes_kb)}K "
            "(the paper's flatness premise)"
        )
    if feasible:
        best = min(feasible, key=lambda p: p.total_leakage)
        smallest = min(feasible, key=lambda p: p.size_bytes)
        findings.append(
            "smallest feasible L1 minimises total leakage"
            if best.size_bytes == smallest.size_bytes
            else f"UNEXPECTED: optimum at {best.size_kb:.0f}K"
        )
        if len(set(l1_assocs)) > 1:
            findings.append(
                f"optimum shape: {best.size_kb:.0f}K "
                f"{best.associativity}-way"
            )
    return ExperimentResult(
        experiment_id="E5",
        title=f"Section 5 L1 exploration ({workload}, L2={l2_size_kb}K fixed)",
        headers=[
            "L1 (KB)",
            "assoc",
            "m_L1",
            "feasible",
            "AMAT (ps)",
            "L1 leakage (mW)",
            "total leakage (mW)",
        ],
        rows=rows,
        findings=findings,
        series={"total leakage vs L1 size": (series_x, series_y)},
        x_label="L1 size (KB)",
        y_label="total leakage (mW)",
    )
