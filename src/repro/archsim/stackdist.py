"""Mattson stack-distance (reuse-distance) analysis.

The classic single-pass characterisation of a reference stream: the
*stack distance* of an access is the number of distinct blocks touched
since the previous access to the same block.  For a fully-associative LRU
cache the inclusion property makes the histogram exact: a cache of
capacity ``C`` blocks misses exactly the accesses whose stack distance is
``>= C`` plus the cold (first-touch) accesses.  One profiling pass
therefore predicts the miss rate of *every* capacity at once.

Two uses here:

* a library feature — profile any trace once, read off the whole
  miss-rate-vs-size curve (how the paper's per-size architectural runs
  could have been done in one pass);
* a correctness oracle — the test suite checks the prediction against
  the event-driven simulator *exactly* for fully-associative LRU caches,
  tying the two independent implementations together.

Three engines compute the same histogram:

* ``engine="offline"`` (the ``"auto"`` default) — a fully vectorized
  O(n log n) pass over the materialised block-address array.  Each
  access's distance is expressed as a 2-D dominance count — with
  ``prev[j]`` the previous occurrence of the block at position ``j``,
  ``distance(i) = #{prev[i] < j < i : prev[j] <= prev[i]}`` — and the
  counts for all accesses are resolved level-by-level with per-level
  sorts and one batched ``searchsorted`` (a divide-and-conquer Fenwick
  equivalent with numpy doing the inner loops);
* ``engine="fenwick"`` — the streaming Bennett–Kruskal/Olken algorithm:
  a Fenwick tree over time positions holds one marker per distinct
  block at its most recent occurrence, and a prefix-sum difference
  yields each distance in O(log n).  Use it when the trace cannot be
  materialised;
* ``engine="list"`` — the original O(n·d) LRU-stack scan, kept as the
  independent reference implementation the equivalence tests (and the
  benchmark baseline) run against.

The *per-set* generalisation lives in :mod:`repro.archsim.setdist`
(re-exported here): Mattson inclusion holds inside each cache set, so
one contraction-cascade pass keyed by ``(block_bytes, n_sets)`` answers
every set-associative ``(size, assoc)`` LRU point exactly — the engine
behind LRU calibration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.archsim.setdist import (
    SetDistanceProfile,
    per_set_profiles,
    two_level_profiles,
)
from repro.archsim.trace import MemoryAccess, TraceLike, as_buffer


@dataclass(frozen=True)
class StackDistanceProfile:
    """The reuse profile of one reference stream.

    Attributes
    ----------
    block_bytes:
        Granularity the stream was profiled at.
    histogram:
        stack distance -> access count (distance 0 = immediate re-use).
    cold_accesses:
        First-touch accesses (infinite stack distance).
    total_accesses:
        All accesses profiled.
    """

    block_bytes: int
    histogram: Dict[int, int]
    cold_accesses: int
    total_accesses: int

    def _cumulative(self) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted distance keys + suffix counts, built once per profile.

        ``tail[i]`` counts accesses at distance ``>= distances[i]`` (with
        a trailing 0), so any miss rate is one binary search instead of
        an O(histogram) sum per query.
        """
        cached = self.__dict__.get("_tail_cache")
        if cached is None:
            distances = np.fromiter(
                self.histogram.keys(), dtype=np.int64, count=len(self.histogram)
            )
            counts = np.fromiter(
                self.histogram.values(),
                dtype=np.int64,
                count=len(self.histogram),
            )
            order = np.argsort(distances)
            distances = distances[order]
            tail = np.zeros(distances.size + 1, dtype=np.int64)
            tail[:-1] = np.cumsum(counts[order][::-1])[::-1]
            cached = (distances, tail)
            object.__setattr__(self, "_tail_cache", cached)
        return cached

    def miss_rate(self, capacity_blocks: int) -> float:
        """Predicted miss rate of a ``capacity_blocks`` fully-assoc LRU cache."""
        if capacity_blocks < 0:
            raise SimulationError(
                f"capacity must be >= 0 blocks, got {capacity_blocks}"
            )
        if self.total_accesses == 0:
            return 0.0
        distances, tail = self._cumulative()
        far = int(tail[np.searchsorted(distances, capacity_blocks)])
        return (far + self.cold_accesses) / self.total_accesses

    def miss_curve(self, capacities_blocks: Iterable[int]) -> Dict[int, float]:
        """Predicted miss rate at each capacity (blocks).

        One batched binary search over the cumulative arrays — the whole
        curve costs O(len(capacities) · log(histogram)).
        """
        capacities = list(capacities_blocks)
        if not capacities:
            return {}
        if min(capacities) < 0:
            raise SimulationError("capacities must be >= 0 blocks")
        if self.total_accesses == 0:
            return {capacity: 0.0 for capacity in capacities}
        distances, tail = self._cumulative()
        far = tail[
            np.searchsorted(
                distances, np.asarray(capacities, dtype=np.int64)
            )
        ]
        return {
            capacity: (int(count) + self.cold_accesses) / self.total_accesses
            for capacity, count in zip(capacities, far)
        }

    @property
    def distinct_blocks(self) -> int:
        """Footprint of the stream in blocks (= cold accesses)."""
        return self.cold_accesses

    def mean_distance(self) -> float:
        """Mean finite stack distance (NaN if no reuse at all)."""
        reused = self.total_accesses - self.cold_accesses
        if reused == 0:
            return float("nan")
        weighted = sum(
            distance * count for distance, count in self.histogram.items()
        )
        return weighted / reused


# -- streaming engine: Bennett-Kruskal / Olken ---------------------------

class FenwickTree:
    """Binary indexed tree over ``[0, capacity)`` (point add, prefix sum)."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise SimulationError(
                f"capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self._nodes = [0] * (capacity + 1)

    def add(self, index: int, delta: int) -> None:
        """Add ``delta`` at ``index``."""
        nodes = self._nodes
        position = index + 1
        capacity = self.capacity
        while position <= capacity:
            nodes[position] += delta
            position += position & -position

    def prefix_sum(self, index: int) -> int:
        """Sum of values at positions ``[0, index]``."""
        nodes = self._nodes
        position = index + 1
        total = 0
        while position > 0:
            total += nodes[position]
            position -= position & -position
        return total


class OlkenProfiler:
    """Incremental stack-distance profiler (Fenwick over time positions).

    Feed block-address chunks in stream order; each distinct block keeps
    one marker in the tree at its most recent position, so the distance
    of a re-access is the marker count strictly between the previous and
    current occurrence — two O(log n) prefix sums.  The tree grows by
    doubling, so no trace length needs to be known up front.
    """

    def __init__(self, block_bytes: int = 64, capacity_hint: int = 1 << 16):
        _validate_block_bytes(block_bytes)
        self.block_bytes = block_bytes
        self._tree = FenwickTree(max(capacity_hint, 16))
        self._marks: List[int] = []  # 1 where a block's latest position is
        self._last_position: Dict[int, int] = {}
        self._histogram: Dict[int, int] = {}
        self._cold = 0
        self._time = 0

    def _grow(self, needed: int) -> None:
        """Grow geometrically; rebuild the tree in O(capacity).

        Capacity at least doubles per overflow, so the total rebuild
        work over any stream is a geometric series in the final
        capacity — O(n) — instead of one O(log n) point-add per
        surviving mark per overflow.  The rebuild seeds the leaf slots
        with the mark vector and pushes each node's partial sum to its
        Fenwick parent once.
        """
        capacity = max(self._tree.capacity * 2, 16)
        while capacity < needed:
            capacity *= 2
        tree = FenwickTree(capacity)
        nodes = tree._nodes
        nodes[1:len(self._marks) + 1] = self._marks
        for position in range(1, capacity + 1):
            parent = position + (position & -position)
            if parent <= capacity:
                nodes[parent] += nodes[position]
        self._tree = tree

    def feed(self, trace: TraceLike) -> "OlkenProfiler":
        """Profile one chunk of accesses (any trace representation)."""
        blocks = (
            as_buffer(trace).addresses & -self.block_bytes
        ).tolist()
        if self._time + len(blocks) > self._tree.capacity:
            self._grow(self._time + len(blocks))
        tree = self._tree
        marks = self._marks
        last_position = self._last_position
        histogram = self._histogram
        time = self._time
        for block in blocks:
            previous = last_position.get(block)
            if previous is None:
                self._cold += 1
            else:
                distance = tree.prefix_sum(time - 1) - tree.prefix_sum(
                    previous
                )
                histogram[distance] = histogram.get(distance, 0) + 1
                tree.add(previous, -1)
                marks[previous] = 0
            tree.add(time, 1)
            marks.append(1)
            last_position[block] = time
            time += 1
        self._time = time
        return self

    def profile(self) -> StackDistanceProfile:
        """Return the profile of everything fed so far."""
        return StackDistanceProfile(
            block_bytes=self.block_bytes,
            histogram=dict(sorted(self._histogram.items())),
            cold_accesses=self._cold,
            total_accesses=self._time,
        )


# -- offline engine: vectorized dominance counting -----------------------

def _previous_occurrences(blocks: np.ndarray) -> np.ndarray:
    """``prev[i]`` = previous index touching the same block, or -1."""
    n = blocks.size
    previous = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return previous
    ids = np.unique(blocks, return_inverse=True)[1]
    order = np.argsort(ids, kind="stable")
    same = ids[order[1:]] == ids[order[:-1]]
    previous[order[1:][same]] = order[:-1][same]
    return previous


def _rank_before(
    values: np.ndarray, query_positions: np.ndarray, query_values: np.ndarray
) -> np.ndarray:
    """For each query, count ``j < position`` with ``values[j] <= value``.

    Bottom-up divide and conquer: a (j, i) pair is counted at the unique
    level where j's block is the left sibling of i's block.  Per level,
    the left blocks are sorted row-wise and all queries resolve with one
    batched ``searchsorted`` on an offset-flattened array (row bases
    strictly dominate in-row values, so the flat array stays sorted).
    """
    n = values.size
    result = np.zeros(query_positions.size, dtype=np.int64)
    if n <= 1 or query_positions.size == 0:
        return result
    padded_size = 1 << (n - 1).bit_length()
    sentinel = n + 1  # larger than any real value or query
    padded = np.full(padded_size, sentinel, dtype=np.int64)
    padded[:n] = values
    row_stride = sentinel + 2
    half = 1
    while half < padded_size:
        # Queries whose block index is odd at this level look left.
        looks_left = (query_positions & half) != 0
        if looks_left.any():
            positions = query_positions[looks_left]
            rows = positions // (2 * half)
            left = np.sort(
                padded.reshape(-1, 2 * half)[:, :half], axis=1
            )
            flat = (
                left
                + (
                    np.arange(left.shape[0], dtype=np.int64) * row_stride
                )[:, None]
            ).ravel()
            counts = (
                np.searchsorted(
                    flat,
                    rows * row_stride + query_values[looks_left],
                    side="right",
                )
                - rows * half
            )
            result[looks_left] += counts
        half *= 2
    return result


def _offline_histogram(
    blocks: np.ndarray,
) -> Tuple[Dict[int, int], int]:
    """Histogram + cold count of a block-address array, O(n log n)."""
    previous = _previous_occurrences(blocks)
    reused = np.nonzero(previous >= 0)[0]
    cold = int(blocks.size - reused.size)
    if reused.size == 0:
        return {}, cold
    previous_of_reused = previous[reused]
    # distance(i) = #{p < j < i : prev[j] <= p} with p = prev[i]
    #             = #{j < i : prev[j] <= p} - (p + 1)
    # (prev[j] < j makes every j <= p count automatically).
    ranks = _rank_before(previous, reused, previous_of_reused)
    distances = ranks - (previous_of_reused + 1)
    counts = np.bincount(distances)
    nonzero = np.nonzero(counts)[0]
    return {
        int(distance): int(counts[distance]) for distance in nonzero
    }, cold


# -- reference engine: O(n * d) LRU-stack scan ---------------------------

def _profile_list(trace, block_bytes: int) -> StackDistanceProfile:
    """The original list-based scan (reference oracle and baseline)."""
    stack: List[int] = []  # most recent first
    histogram: Dict[int, int] = {}
    cold = 0
    total = 0
    for access in trace:
        if not isinstance(access, MemoryAccess):
            raise SimulationError(
                f"trace must yield MemoryAccess records, got {type(access)}"
            )
        total += 1
        block = access.block_address(block_bytes)
        try:
            distance = stack.index(block)
        except ValueError:
            cold += 1
            stack.insert(0, block)
            continue
        histogram[distance] = histogram.get(distance, 0) + 1
        del stack[distance]
        stack.insert(0, block)
    return StackDistanceProfile(
        block_bytes=block_bytes,
        histogram=dict(sorted(histogram.items())),
        cold_accesses=cold,
        total_accesses=total,
    )


def _validate_block_bytes(block_bytes: int) -> None:
    if block_bytes <= 0 or block_bytes & (block_bytes - 1):
        raise SimulationError(
            f"block_bytes must be a positive power of two, got {block_bytes}"
        )


def stack_distance_profile(
    trace: TraceLike, block_bytes: int = 64, engine: str = "auto"
) -> StackDistanceProfile:
    """Profile a trace in one pass.

    ``trace`` may be a record stream, a
    :class:`~repro.archsim.trace.TraceBuffer`, or a raw address array.
    ``engine`` selects the implementation (see the module docstring):
    ``"auto"``/``"offline"`` (vectorized O(n log n), the default),
    ``"fenwick"`` (streaming Olken), or ``"list"`` (the O(n·d)
    reference).  All three produce identical profiles.
    """
    _validate_block_bytes(block_bytes)
    if engine == "list":
        buffer_like = trace
        if isinstance(trace, np.ndarray):
            buffer_like = as_buffer(trace)
        return _profile_list(buffer_like, block_bytes)
    if engine == "fenwick":
        return OlkenProfiler(block_bytes=block_bytes).feed(trace).profile()
    if engine not in ("auto", "offline"):
        raise SimulationError(
            f"unknown engine {engine!r}; expected one of "
            f"'auto', 'offline', 'fenwick', 'list'"
        )
    buffer = as_buffer(trace)
    blocks = buffer.addresses & -block_bytes
    histogram, cold = _offline_histogram(blocks)
    return StackDistanceProfile(
        block_bytes=block_bytes,
        histogram=histogram,
        cold_accesses=cold,
        total_accesses=len(buffer),
    )
