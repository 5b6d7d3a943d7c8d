"""The batched multi-config engine must match per-point simulation *exactly*.

`MultiConfigHierarchyEngine` shares one address decode, per-set run
compression, and one simulated L1 per distinct shape across every
configuration in the grid.  None of that sharing may show up in the
numbers: every statistic of every point must be bit-identical to running
`ArrayTwoLevelHierarchy` once for that point alone — across random
grids, chunk sizes, workload shapes, and both policies the engine
simulates (FIFO and random; LRU grids go through `repro.archsim.setdist`).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.archsim.hierarchy import ArrayTwoLevelHierarchy
from repro.archsim.multiconfig import MultiConfigHierarchyEngine
from repro.archsim.trace import TraceBuffer
from repro.archsim.workloads import (
    SPEC2000_LIKE,
    SPECWEB_LIKE,
    TPCC_LIKE,
    synthetic_trace_buffer,
)
from repro.cache.config import CacheConfig
from repro.errors import SimulationError


def _config(size_bytes, block_bytes, associativity, name):
    return CacheConfig(
        size_bytes=size_bytes,
        block_bytes=block_bytes,
        associativity=associativity,
        name=name,
    )


L1_SHAPES = [
    (512, 32, 1),
    (512, 32, 2),
    (1024, 32, 2),
    (1024, 64, 2),
    (2048, 64, 4),
]

L2_SHAPES = [
    (4096, 64, 4),
    (8192, 64, 8),
    (8192, 128, 4),
    (16384, 64, 8),
]

traces = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1 << 15),
        st.booleans(),
    ),
    min_size=0,
    max_size=400,
)

points_strategy = st.lists(
    st.tuples(
        st.sampled_from(L1_SHAPES),
        st.one_of(st.none(), st.sampled_from(L2_SHAPES)),
    ),
    min_size=1,
    max_size=6,
)

chunk_sizes = st.sampled_from([1, 3, 64, 1000])

POLICIES = ("fifo", "random")
policies = st.sampled_from(POLICIES)


def _buffer(records):
    return TraceBuffer(
        np.array([address for address, _ in records], dtype=np.int64),
        np.array([write for _, write in records], dtype=bool),
    )


def _build_points(raw_points):
    points = []
    for index, (l1_shape, l2_shape) in enumerate(raw_points):
        l1 = _config(*l1_shape, name=f"L1-{index}")
        l2 = _config(*l2_shape, name=f"L2-{index}") if l2_shape else None
        points.append((l1, l2))
    return points


def _assert_point_matches(actual, l1_config, l2_config, records, policy):
    reference = ArrayTwoLevelHierarchy(
        l1_config,
        l2_config
        if l2_config is not None
        else _config(1 << 20, l1_config.block_bytes, 16, "L2-huge"),
        policy,
    )
    expected = reference.run(_buffer(records))
    assert actual.l1 == expected.l1
    if l2_config is not None:
        assert actual.l2 == expected.l2
        assert actual.memory_accesses == expected.memory_accesses


class TestBatchedEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(records=traces, raw_points=points_strategy,
           chunk_size=chunk_sizes, policy=policies)
    def test_every_point_bit_identical(
        self, records, raw_points, chunk_size, policy
    ):
        points = _build_points(raw_points)
        engine = MultiConfigHierarchyEngine(points, policy)
        results = engine.run(_buffer(records), chunk_size=chunk_size)
        assert len(results) == len(points)
        for actual, (l1_config, l2_config) in zip(results, points):
            _assert_point_matches(
                actual, l1_config, l2_config, records, policy
            )

    @settings(max_examples=20, deadline=None)
    @given(records=traces, raw_points=points_strategy, policy=policies)
    def test_chunk_size_never_changes_results(
        self, records, raw_points, policy
    ):
        points = _build_points(raw_points)
        outcomes = []
        for chunk_size in (1, 7, 128, 10_000):
            outcomes.append(
                MultiConfigHierarchyEngine(points, policy).run(
                    _buffer(records), chunk_size=chunk_size
                )
            )
        for results in outcomes[1:]:
            for result, first in zip(results, outcomes[0]):
                assert result.l1 == first.l1
                assert result.l2 == first.l2
                assert result.memory_accesses == first.memory_accesses

    @pytest.mark.parametrize(
        "spec", [SPEC2000_LIKE, SPECWEB_LIKE, TPCC_LIKE],
        ids=lambda spec: spec.name,
    )
    def test_synthetic_workload_grids(self, spec):
        trace = synthetic_trace_buffer(spec, 20_000, seed=9)
        points = _build_points(
            [(l1, l2) for l1 in L1_SHAPES[:3] for l2 in L2_SHAPES[:2]]
            + [(l1, None) for l1 in L1_SHAPES[:3]]
        )
        records = list(
            zip(trace.addresses.tolist(), np.asarray(trace.is_write).tolist())
        )
        for policy in POLICIES:
            results = MultiConfigHierarchyEngine(points, policy).run(trace)
            for actual, (l1_config, l2_config) in zip(results, points):
                _assert_point_matches(
                    actual, l1_config, l2_config, records, policy
                )


class TestEngineContract:
    L1 = _config(512, 32, 2, "L1")
    L2 = _config(4096, 64, 4, "L2")

    def test_duplicate_points_share_simulation(self):
        points = [(self.L1, self.L2)] * 4 + [(self.L1, None)] * 2
        engine = MultiConfigHierarchyEngine(points, "fifo")
        assert engine.n_points == 6
        assert engine.n_lanes == 1
        assert engine.n_followers == 1
        records = [(index * 32 % 4096, index % 5 == 0)
                   for index in range(500)]
        results = engine.run(_buffer(records))
        assert results[0] == results[1] == results[2] == results[3]
        assert results[4] == results[5]

    def test_l1_only_points_report_empty_l2(self):
        records = [(index * 64 % 8192, False) for index in range(300)]
        (result,) = MultiConfigHierarchyEngine(
            [(self.L1, None)], "fifo"
        ).run(_buffer(records))
        assert result.l2 == type(result.l2)()
        assert result.memory_accesses == 0
        assert result.l1.accesses == 300

    def test_rejects_unknown_policy(self):
        with pytest.raises(SimulationError):
            MultiConfigHierarchyEngine([(self.L1, self.L2)], policy="plru")

    def test_rejects_lru(self):
        with pytest.raises(SimulationError, match="setdist"):
            MultiConfigHierarchyEngine([(self.L1, self.L2)], policy="lru")

    def test_rejects_empty_points(self):
        with pytest.raises(SimulationError):
            MultiConfigHierarchyEngine([], "fifo")

    def test_results_are_snapshots(self):
        records = [(index * 32, False) for index in range(100)]
        engine = MultiConfigHierarchyEngine([(self.L1, self.L2)], "fifo")
        engine.run(_buffer(records))
        first = engine.results()
        engine.run(_buffer(records))
        second = engine.results()
        assert second[0].l1.accesses == 2 * first[0].l1.accesses
        assert first[0].l1.accesses == 100
