"""Pareto-front utilities (minimisation convention).

Used in two places: pruning per-component candidate sets before product
enumeration (a dominated component choice can never appear in an optimal
assignment, because leakage and delay are both additive), and extracting
the final (AMAT, energy) trade-off curves of Figure 2.  Both kernels are
exact and sort-based; duplicate rows keep their smallest index.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import OptimizationError

#: Sorted rows decided per step of :func:`pareto_indices`.
_BLOCK_ROWS = 1024


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
    if np.isnan(costs).any():  # NaN is unordered: no front exists
        raise OptimizationError("costs contain NaN")
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

    A row dominates another if it is <= everywhere and < somewhere;
    among duplicate rows the smallest index is kept.  Two columns take
    :func:`pareto_indices_2d`.  Otherwise, after a stable lexsort (first
    column primary) a row goes iff some earlier sorted row is <= it on
    every trailing column: that row dominates or duplicates it.  The
    sorted rows are decided in blocks of :data:`_BLOCK_ROWS`, each
    against the rows kept so far plus its own earlier rows, so memory
    stays bounded for any n.  NaN costs are rejected.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 2 or costs.shape[1] == 0:
        raise OptimizationError(
            f"costs must be an (n, d >= 1) matrix, got shape {costs.shape}"
        )
    if costs.shape[1] == 2:
        return pareto_indices_2d(costs)
    if np.isnan(costs).any():
        raise OptimizationError("costs contain NaN")
    n = costs.shape[0]
    order = np.lexsort(costs.T[::-1])
    trailing = costs[order, 1:].T
    positions = np.arange(n)
    kept = positions[:0]
    for start in range(0, n, _BLOCK_ROWS):
        block = positions[start:start + _BLOCK_ROWS]
        earlier = np.concatenate([kept, block])
        # covered[i, j]: earlier[i] sorts before block[j] and is <= it on
        # every trailing column.  Built per column on 2-D matrices: an
        # (m, m, d) .all(axis=2) over the short last axis is far slower.
        covered = earlier[:, None] < block
        for mine, theirs in zip(
            trailing[:, earlier], trailing[:, start:start + _BLOCK_ROWS]
        ):
            covered &= mine[:, None] <= theirs
        kept = np.concatenate([kept, block[~covered.any(axis=0)]])
    return np.sort(order[kept])


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
