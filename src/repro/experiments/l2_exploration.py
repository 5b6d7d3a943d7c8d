"""E3 / E4 — Section 5 L2-size explorations.

**E3 (single pair).** Fix a 16 KB L1 at its default knobs, sweep L2
capacity, and at an iso-AMAT budget find each capacity's leakage-optimal
single (Vth, Tox) pair.  The paper's findings: under a tight budget the
bigger L2 generally consumes less leakage (its lower miss rate buys knob
headroom), *but* the largest capacities lose — the sheer cell count of a
very large L2 outweighs its miss-rate benefit (interior optimum).

**E4 (split pairs).** Same sweep with independent (Vth, Tox) for the L2
cell array and its periphery.  Now the delay can be bought back in the
periphery alone, every capacity can park its array at the conservative
corner, and the smaller L2 (fewer leaking cells) wins — the abstract's
headline result.  The experiment also verifies that the optimiser sets
the core array much more conservatively than the periphery.

The iso-AMAT budget is self-calibrating: a multiplier on the fastest AMAT
achievable anywhere in the sweep (the paper picks fixed targets; a
multiplier keeps the experiment meaningful for any workload/technology).
The budget anchor always probes the reference 8-way shape, so sweeping
``l2_assocs`` (dense-surface miss curves from the profile store) only
adds candidate shapes without moving the budget.
"""

from __future__ import annotations

from typing import Optional, Sequence


from repro import units
from repro.archsim.missmodel import (
    REFERENCE_L2_ASSOC,
    MissRateModel,
    calibrated_miss_model,
    calibrated_miss_surface,
)
from repro.cache.cache_model import CacheModel
from repro.cache.config import kib_to_bytes, l1_config, l2_config
from repro.energy.dynamic import MainMemoryModel
from repro.experiments.report import ExperimentResult
from repro.optimize.single_cache import enumerate_candidates
from repro.optimize.schemes import Scheme
from repro.optimize.space import DesignSpace, default_space
from repro.optimize.two_level import (
    default_l1_knobs,
    explore_l2_sizes,
)
from repro.technology.bptm import Technology, bptm65

DEFAULT_L2_SIZES_KB = (128, 256, 512, 1024, 2048, 4096)

#: Associativities swept alongside capacity (reference 8-way included so
#: the paper's shape stays in the comparison).
DEFAULT_L2_ASSOCS = (4, 8, 16)

#: Budget multipliers on the fastest achievable AMAT (see module docstring).
SINGLE_PAIR_BUDGET_FACTOR = 1.07
SPLIT_BUDGET_FACTOR = 1.13


def fastest_achievable_amat(
    miss_model: MissRateModel,
    l2_sizes_kb: Sequence[int],
    l1_size_kb: int = 16,
    technology: Optional[Technology] = None,
    space: Optional[DesignSpace] = None,
    memory: MainMemoryModel = MainMemoryModel(),
) -> float:
    """Fastest AMAT (s) over all capacities with all-aggressive L2 knobs."""
    technology = technology if technology is not None else bptm65()
    if space is None:
        space = default_space(technology=technology)
    l1_model = CacheModel(l1_config(l1_size_kb), technology=technology)
    l1_time = l1_model.uniform(default_l1_knobs(technology)).access_time
    m1 = miss_model.l1_miss_rate(l1_model.config.size_bytes)
    best = float("inf")
    for size_kb in l2_sizes_kb:
        l2_model = CacheModel(l2_config(size_kb), technology=technology)
        m2 = miss_model.l2_local_miss_rate(l2_model.config.size_bytes)
        _, delays, _ = enumerate_candidates(l2_model, Scheme.UNIFORM, space)
        amat = l1_time + m1 * (delays.min() + m2 * memory.latency)
        best = min(best, float(amat))
    return best


def run_l2_exploration(
    workload: str = "spec2000",
    split: bool = False,
    l2_sizes_kb: Sequence[int] = DEFAULT_L2_SIZES_KB,
    l1_size_kb: int = 16,
    budget_factor: Optional[float] = None,
    technology: Optional[Technology] = None,
    space: Optional[DesignSpace] = None,
    memory: MainMemoryModel = MainMemoryModel(),
    l2_assocs: Sequence[int] = DEFAULT_L2_ASSOCS,
) -> ExperimentResult:
    """Run E3 (``split=False``) or E4 (``split=True``)."""
    if tuple(l2_assocs) == (REFERENCE_L2_ASSOC,):
        miss_model = calibrated_miss_model(workload)
    else:
        miss_model = calibrated_miss_surface(workload)
    if budget_factor is None:
        budget_factor = (
            SPLIT_BUDGET_FACTOR if split else SINGLE_PAIR_BUDGET_FACTOR
        )
    fastest = fastest_achievable_amat(
        miss_model, l2_sizes_kb, l1_size_kb, technology, space, memory
    )
    budget = budget_factor * fastest
    points = explore_l2_sizes(
        miss_model,
        budget,
        l2_sizes_kb=l2_sizes_kb,
        l1_size_kb=l1_size_kb,
        split=split,
        technology=technology,
        space=space,
        memory=memory,
        l2_assocs=l2_assocs,
    )

    rows = []
    for point in points:
        label = "yes" if point.feasible else "NO"
        array_knobs = (
            point.assignment.array.label() if point.assignment else "-"
        )
        periph_knobs = (
            point.assignment["decoder"].label() if point.assignment else "-"
        )
        rows.append(
            [
                f"{point.size_kb:.0f}",
                f"{point.associativity}",
                f"{point.l2_local_miss_rate:.3f}",
                label,
                f"{units.to_ps(point.amat):.0f}",
                f"{units.to_mw(point.varied_leakage):.3f}"
                if point.feasible
                else "-",
                array_knobs,
                periph_knobs,
            ]
        )

    # "vs size" series: collapse the assoc axis to each capacity's best
    # (least L2 leakage among feasible shapes).
    series_x = []
    series_y = []
    for size_kb in l2_sizes_kb:
        candidates = [
            p
            for p in points
            if p.feasible and p.size_bytes == kib_to_bytes(size_kb)
        ]
        if candidates:
            series_x.append(float(size_kb))
            series_y.append(
                units.to_mw(min(p.varied_leakage for p in candidates))
            )

    feasible = [p for p in points if p.feasible]
    findings = [
        f"AMAT budget = {budget_factor:.2f} x fastest achievable "
        f"({units.to_ps(budget):.0f} ps)"
    ]
    if feasible:
        best = min(feasible, key=lambda p: p.varied_leakage)
        largest_bytes = max(p.size_bytes for p in points)
        largest_feasible = [
            p for p in feasible if p.size_bytes == largest_bytes
        ]
        if split:
            smallest_feasible = min(feasible, key=lambda p: p.size_bytes)
            findings.append(
                "smallest feasible L2 wins with split pairs"
                if best.size_bytes == smallest_feasible.size_bytes
                else f"UNEXPECTED: optimum at {best.size_kb:.0f}K, "
                f"not the smallest"
            )
            conservative = all(
                p.assignment.array.vth >= p.assignment["decoder"].vth
                and p.assignment.array.tox >= p.assignment["decoder"].tox
                for p in feasible
            )
            findings.append(
                "core array always set more conservatively than periphery"
                if conservative
                else "UNEXPECTED: some array set below periphery"
            )
        else:
            findings.append(
                f"optimum at {best.size_kb:.0f}K "
                f"({units.to_mw(best.varied_leakage):.2f} mW)"
            )
            findings.append(
                "largest L2 is not the optimum (leakage outweighs "
                "miss-rate benefit)"
                if (not largest_feasible)
                or min(p.varied_leakage for p in largest_feasible)
                > best.varied_leakage
                else "UNEXPECTED: largest L2 is optimal"
            )
            smallest = min(feasible, key=lambda p: p.size_bytes)
            if best.size_bytes > smallest.size_bytes:
                findings.append(
                    "a bigger L2 beats the smallest feasible one "
                    "(miss-rate headroom buys conservative knobs)"
                )
        if len(set(l2_assocs)) > 1:
            findings.append(
                f"optimum shape: {best.size_kb:.0f}K "
                f"{best.associativity}-way"
            )
    else:
        findings.append("UNEXPECTED: no feasible capacity at this budget")

    return ExperimentResult(
        experiment_id="E4" if split else "E3",
        title=(
            f"Section 5 L2 exploration, "
            f"{'split core/periphery pairs' if split else 'single pair'} "
            f"({workload})"
        ),
        headers=[
            "L2 (KB)",
            "assoc",
            "m_L2",
            "feasible",
            "AMAT (ps)",
            "L2 leakage (mW)",
            "array knobs",
            "periph knobs",
        ],
        rows=rows,
        findings=findings,
        series={"L2 leakage vs size": (series_x, series_y)},
        x_label="L2 size (KB)",
        y_label="leakage (mW)",
    )
