"""Pareto-front utilities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import OptimizationError
from repro.optimize import pareto
from repro.optimize.pareto import (
    pareto_front,
    pareto_indices,
    pareto_indices_2d,
    sort_by_first_cost,
)


class TestHandCases:
    def test_simple_2d(self):
        costs = np.array([[1, 3], [2, 2], [3, 1], [3, 3]])
        keep = pareto_indices(costs)
        assert list(keep) == [0, 1, 2]

    def test_single_point(self):
        assert list(pareto_indices(np.array([[1.0, 2.0]]))) == [0]

    def test_empty(self):
        assert len(pareto_indices(np.empty((0, 2)))) == 0

    def test_dominated_point_dropped(self):
        costs = np.array([[1, 1], [2, 2]])
        assert list(pareto_indices(costs)) == [0]

    def test_duplicates_collapse(self):
        costs = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert len(pareto_indices(costs)) == 1

    def test_3d(self):
        costs = np.array(
            [
                [1, 2, 3],
                [3, 2, 1],
                [2, 2, 2],
                [3, 3, 3],  # dominated by all
            ]
        )
        keep = pareto_indices(costs)
        assert 3 not in keep
        assert set(keep) == {0, 1, 2}

    def test_ties_kept_when_incomparable(self):
        costs = np.array([[1, 2], [2, 1]])
        assert len(pareto_indices(costs)) == 2

    def test_rejects_1d(self):
        with pytest.raises(OptimizationError):
            pareto_indices(np.array([1.0, 2.0]))

    def test_rejects_no_columns(self):
        with pytest.raises(OptimizationError):
            pareto_indices(np.empty((3, 0)))

    def test_rejects_nan_3d(self):
        # NaN compares false both ways, so it has no place in any order.
        costs = np.array([[0.0, np.nan, 1.0], [1.0, 2.0, 0.0], [2.0, 1.0, 1.0]])
        with pytest.raises(OptimizationError, match="NaN"):
            pareto_indices(costs)

    def test_infinities_allowed_3d(self):
        costs = np.array(
            [[np.inf, 0.0, 0.0], [1.0, -np.inf, 5.0], [1.0, 2.0, np.inf]]
        )
        assert list(pareto_indices(costs)) == [0, 1]


class Test2dFastPath:
    def test_rejects_wrong_width(self):
        with pytest.raises(OptimizationError):
            pareto_indices_2d(np.ones((3, 3)))

    def test_rejects_nan(self):
        # A NaN would poison the running minimum and silently drop every
        # later row.
        costs = np.array([[0.0, np.nan], [1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(OptimizationError, match="NaN"):
            pareto_indices_2d(costs)

    def test_infinities_allowed(self):
        costs = np.array([[0.0, np.inf], [1.0, 2.0], [-np.inf, 3.0]])
        assert list(pareto_indices_2d(costs)) == [1, 2]

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20),
                st.integers(min_value=0, max_value=20),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_agrees_with_bruteforce(self, points):
        costs = np.array(points, dtype=float)
        fast = set(map(tuple, costs[pareto_indices_2d(costs)]))
        # Brute force: a point survives iff nothing dominates it.
        brute = set()
        for i, row in enumerate(costs):
            dominated = any(
                np.all(other <= row) and np.any(other < row)
                for j, other in enumerate(costs)
                if j != i
            )
            if not dominated:
                brute.add(tuple(row))
        assert fast == brute


class Test2dAgainstGenericPairwise:
    """The vectorised 2-D fast path must match the generic pairwise check."""

    @staticmethod
    def _pairwise_reference(costs):
        """Generic dominance check with first-occurrence duplicate collapse
        (the same semantics as pareto_indices)."""
        kept = []
        seen = set()
        for i, row in enumerate(costs):
            dominated = any(
                np.all(other <= row) and np.any(other < row) for other in costs
            )
            if dominated or tuple(row) in seen:
                continue
            seen.add(tuple(row))
            kept.append(i)
        return kept

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(
                    min_value=0, max_value=100, allow_nan=False
                ),
                st.floats(
                    min_value=0, max_value=100, allow_nan=False
                ),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_matches_generic_on_random_floats(self, points):
        costs = np.array(points, dtype=float)
        assert list(pareto_indices_2d(costs)) == self._pairwise_reference(costs)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6),
                st.integers(min_value=0, max_value=6),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_matches_generic_with_heavy_ties(self, points):
        # A tiny integer alphabet forces many duplicates and axis ties —
        # exactly the cases the old scalar loop special-cased.
        costs = np.array(points, dtype=float)
        assert list(pareto_indices_2d(costs)) == self._pairwise_reference(costs)

    def test_dispatch_consistent_with_generic_entry_point(self):
        rng = np.random.default_rng(7)
        costs = rng.random((500, 2))
        assert np.array_equal(pareto_indices(costs), pareto_indices_2d(costs))


def _unique_collapse_reference(costs):
    """Test-only oracle for :func:`pareto_indices`: an ``(n, n, d)``
    pairwise dominance matrix, then ``np.unique`` over the survivors
    keeping each row's first occurrence."""
    less_equal = (costs[:, None, :] <= costs[None, :, :]).all(axis=2)
    dominates = less_equal & ~less_equal.T
    keep = np.flatnonzero(~dominates.any(axis=0))
    if len(keep) > 1:
        _, first = np.unique(costs[keep], axis=0, return_index=True)
        keep = keep[np.sort(first)]
    return keep


def _rows_with_repeats(values, width):
    """Cost matrices of ``width`` columns with ties and repeated rows."""
    row = st.tuples(*([values] * width))
    return st.lists(row, min_size=1, max_size=50).flatmap(
        lambda rows: st.lists(
            st.sampled_from(rows), min_size=0, max_size=20
        ).flatmap(lambda repeats: st.permutations(rows + repeats))
    )


class TestSortKernelDuplicateCollapse:
    """The sort kernel keeps exactly what the ``np.unique`` collapse
    kept, index for index."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=3, max_value=5).flatmap(
            lambda width: _rows_with_repeats(
                st.integers(min_value=0, max_value=4), width
            )
        )
    )
    def test_matches_unique_collapse_with_heavy_ties(self, rows):
        costs = np.array(rows, dtype=float)
        assert np.array_equal(
            pareto_indices(costs), _unique_collapse_reference(costs)
        )

    @settings(max_examples=100, deadline=None)
    @given(
        _rows_with_repeats(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), 3
        )
    )
    def test_matches_unique_collapse_on_floats(self, rows):
        costs = np.array(rows, dtype=float)
        assert np.array_equal(
            pareto_indices(costs), _unique_collapse_reference(costs)
        )

    def test_first_occurrence_survives(self):
        costs = np.array(
            [[2, 2, 2], [1, 3, 1], [2, 2, 2], [1, 3, 1], [3, 3, 3]],
            dtype=float,
        )
        assert list(pareto_indices(costs)) == [0, 1]


class TestSortKernelAcrossBlocks:
    """Tiny blocks make every input cross several block boundaries, so
    the kept-rows test and the in-block triangle both decide rows."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.sampled_from([1, 3, 4]).flatmap(
            lambda width: _rows_with_repeats(
                st.integers(min_value=0, max_value=3), width
            )
        ),
    )
    def test_matches_oracle_with_small_blocks(self, block_rows, rows):
        costs = np.array(rows, dtype=float)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pareto, "_BLOCK_ROWS", block_rows)
            kept = pareto_indices(costs)
        assert np.array_equal(kept, _unique_collapse_reference(costs))

    def test_duplicates_straddling_a_boundary(self, monkeypatch):
        monkeypatch.setattr(pareto, "_BLOCK_ROWS", 2)
        costs = np.array(
            [[1, 2, 2], [0, 5, 5], [1, 2, 2], [1, 2, 2], [0, 5, 5]],
            dtype=float,
        )
        assert list(pareto_indices(costs)) == [0, 1]


class TestLargeHighDimScan:
    def test_large_input_matches_pairwise_semantics(self):
        # Several default-size blocks, small enough for the oracle's
        # (n, n, d) matrix.  Quantised and anticorrelated, so duplicates,
        # dominance and a front of dozens of rows all occur.
        rng = np.random.default_rng(11)
        costs = np.round(rng.random((2500, 3)) * 8) / 8.0
        costs[:, 2] = np.round(2.0 - costs[:, 0] - costs[:, 1] + costs[:, 2] / 4, 3)
        keep = pareto_indices(costs)
        assert 10 < len(keep) < len(np.unique(costs, axis=0))
        assert np.array_equal(keep, _unique_collapse_reference(costs))

    def test_large_anticorrelated_front(self):
        # A front of ~all rows stresses the kept-rows test, not the sort.
        rng = np.random.default_rng(12)
        costs = rng.random((2500, 3))
        costs[:, 2] = 3.0 - costs[:, 0] - costs[:, 1]
        costs = np.vstack([costs, costs[:300]])
        keep = pareto_indices(costs)
        assert len(keep) == 2500
        assert np.array_equal(keep, _unique_collapse_reference(costs))


class TestHelpers:
    def test_pareto_front_filters_points(self):
        points = ["a", "b", "c"]
        costs = np.array([[1, 3], [2, 2], [2, 4]])
        surviving, surviving_costs = pareto_front(points, costs)
        assert surviving == ["a", "b"]
        assert surviving_costs.shape == (2, 2)

    def test_pareto_front_length_mismatch(self):
        with pytest.raises(OptimizationError):
            pareto_front(["a"], np.array([[1, 2], [3, 4]]))

    def test_sort_by_first_cost(self):
        points = ["slow", "fast"]
        costs = np.array([[2.0, 1.0], [1.0, 2.0]])
        ordered, ordered_costs = sort_by_first_cost(points, costs)
        assert ordered == ["fast", "slow"]
        assert ordered_costs[0, 0] == 1.0


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=10),
                st.floats(min_value=0, max_value=10),
                st.floats(min_value=0, max_value=10),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_front_is_mutually_nondominating(self, points):
        costs = np.array(points)
        keep = pareto_indices(costs)
        front = costs[keep]
        for i in range(len(front)):
            for j in range(len(front)):
                if i == j:
                    continue
                dominates = np.all(front[i] <= front[j]) and np.any(
                    front[i] < front[j]
                )
                assert not dominates

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=10),
                st.floats(min_value=0, max_value=10),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_minimum_of_each_axis_survives(self, points):
        costs = np.array(points)
        keep = pareto_indices(costs)
        front = costs[keep]
        for axis in range(costs.shape[1]):
            assert front[:, axis].min() == costs[:, axis].min()
