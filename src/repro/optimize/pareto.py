"""Pareto-front utilities (minimisation convention).

Used in two places: pruning per-component candidate sets before product
enumeration (a dominated component choice can never appear in an optimal
assignment, because leakage and delay are both additive), and extracting
the final (AMAT, energy) trade-off curves of Figure 2.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import OptimizationError


def pareto_indices_2d(costs: np.ndarray) -> np.ndarray:
    """Fast exact Pareto-minimal indices for 2-column costs.

    Sort by the first column (ties: second column), then keep rows whose
    second column strictly improves on the running minimum.  Fully
    vectorised O(n log n); used for the large (AMAT, energy) clouds of
    the tuple problem.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 2 or costs.shape[1] != 2:
        raise OptimizationError(
            f"pareto_indices_2d needs an (n, 2) matrix, got {costs.shape}"
        )
    n = costs.shape[0]
    if n == 0:
        return np.empty(0, dtype=int)
    order = np.lexsort((costs[:, 1], costs[:, 0]))
    seconds = costs[order, 1]
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    if n > 1:
        # A sorted row survives iff its second column beats every earlier
        # row's; ties and duplicates lose to the first occurrence (lexsort
        # is stable, so that is the smallest original index).
        keep[1:] = seconds[1:] < np.minimum.accumulate(seconds)[:-1]
    return np.sort(order[keep])


def pareto_indices(costs: np.ndarray) -> np.ndarray:
    """Return indices of the Pareto-minimal rows of a (n, d) cost matrix.

    A row dominates another if it is <= everywhere and < somewhere.
    Deterministic: among duplicate rows, the lexicographically earliest
    sorted occurrence is kept.  Dispatches to the O(n log n) scan for two
    columns and to a vectorised pairwise check otherwise.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 2:
        raise OptimizationError(
            f"costs must be a 2-D matrix, got shape {costs.shape}"
        )
    n = costs.shape[0]
    if n == 0:
        return np.empty(0, dtype=int)
    if costs.shape[1] == 2:
        return pareto_indices_2d(costs)
    if n <= 4096:
        # Vectorised pairwise dominance: dominated[i] iff some j has
        # costs[j] <= costs[i] everywhere and < somewhere.  The strict
        # part needs no second comparison: any(a < b) == not all(b <= a),
        # i.e. the transpose of the <= matrix.  Rows <= each other both
        # ways are equal; exact duplicates collapse to the first
        # occurrence, so row i also goes when an earlier row equals it.
        less_equal = (costs[:, None, :] <= costs[None, :, :]).all(axis=2)
        beaten = less_equal & ~less_equal.T  # [j, i]: j dominates i
        beaten |= np.triu(less_equal & less_equal.T, k=1)  # j < i, equal
        return np.flatnonzero(~beaten.any(axis=0))
    # Large high-dimensional inputs: sort-based scan.  After a stable
    # lexsort (first column primary) every dominator or duplicate of a row
    # sorts before it, so each row needs checking only against the rows
    # kept so far — and a kept row that is <= everywhere either dominates
    # (skip) or is an exact duplicate (also skip), so one vectorised
    # comparison per row decides it.
    order = np.lexsort(costs.T[::-1])
    kept_rows = np.empty_like(costs)
    kept: List[int] = []
    count = 0
    for index in order:
        row = costs[index]
        if count and np.any(np.all(kept_rows[:count] <= row, axis=1)):
            continue
        kept_rows[count] = row
        kept.append(index)
        count += 1
    return np.array(sorted(kept), dtype=int)


def pareto_front(
    points: Sequence, costs: np.ndarray
) -> Tuple[List, np.ndarray]:
    """Return (surviving points, their cost rows), Pareto-minimal only."""
    if len(points) != len(costs):
        raise OptimizationError(
            f"{len(points)} points but {len(costs)} cost rows"
        )
    indices = pareto_indices(np.asarray(costs, dtype=float))
    return [points[i] for i in indices], np.asarray(costs, dtype=float)[indices]


def sort_by_first_cost(
    points: Sequence, costs: np.ndarray
) -> Tuple[List, np.ndarray]:
    """Sort points by the first cost column (for plotting trade-off curves)."""
    costs = np.asarray(costs, dtype=float)
    order = np.argsort(costs[:, 0], kind="stable")
    return [points[i] for i in order], costs[order]
