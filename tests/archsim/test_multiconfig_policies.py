"""The FIFO and random kernels must match per-point runs *exactly*.

Companion to ``tests/archsim/test_multiconfig.py`` with a direct-mapped
L2 shape and seed coverage: the fill-order slot/dict encodings and the
per-cache rng streams may not shift any
statistic of any point relative to running ``ArrayTwoLevelHierarchy``
once for that point alone — across random grids, chunk sizes, seeds,
and workload shapes.  Random is the sharpest probe: one extra or missing
rng draw anywhere desynchronises every later victim choice.
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

POLICIES = ("fifo", "random")


def _config(size_bytes, block_bytes, associativity, name):
    return CacheConfig(
        size_bytes=size_bytes,
        block_bytes=block_bytes,
        associativity=associativity,
        name=name,
    )


# Direct-mapped, 2-way and dict-encoded shapes at both levels, so every
# generated kernel variant (slot1/rslot1, fslot2/rslot2, fdict/rdict)
# is exercised.
L1_SHAPES = [
    (512, 32, 1),
    (512, 32, 2),
    (1024, 32, 2),
    (1024, 64, 2),
    (2048, 64, 4),
]

L2_SHAPES = [
    (4096, 64, 1),
    (4096, 64, 4),
    (8192, 64, 8),
    (8192, 128, 4),
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


def _assert_point_matches(actual, l1_config, l2_config, records, policy,
                          seed=0):
    reference = ArrayTwoLevelHierarchy(
        l1_config,
        l2_config
        if l2_config is not None
        else _config(1 << 20, l1_config.block_bytes, 16, "L2-huge"),
        policy,
        seed,
    )
    expected = reference.run(_buffer(records))
    assert actual.l1 == expected.l1
    if l2_config is not None:
        assert actual.l2 == expected.l2
        assert actual.memory_accesses == expected.memory_accesses


class TestPolicyEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(records=traces, raw_points=points_strategy,
           chunk_size=chunk_sizes, policy=policies)
    def test_every_point_bit_identical(
        self, records, raw_points, chunk_size, policy
    ):
        points = _build_points(raw_points)
        engine = MultiConfigHierarchyEngine(points, policy=policy)
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

    @settings(max_examples=15, deadline=None)
    @given(records=traces, raw_points=points_strategy,
           seed=st.integers(min_value=0, max_value=2**16))
    def test_random_seed_matches_per_point_streams(
        self, records, raw_points, seed
    ):
        points = _build_points(raw_points)
        results = MultiConfigHierarchyEngine(
            points, policy="random", seed=seed
        ).run(_buffer(records))
        for actual, (l1_config, l2_config) in zip(results, points):
            _assert_point_matches(
                actual, l1_config, l2_config, records, "random", seed
            )

    @pytest.mark.parametrize(
        "spec", [SPEC2000_LIKE, SPECWEB_LIKE, TPCC_LIKE],
        ids=lambda spec: spec.name,
    )
    @pytest.mark.parametrize("policy", ["fifo", "random"])
    def test_synthetic_workload_grids(self, spec, policy):
        trace = synthetic_trace_buffer(spec, 20_000, seed=9)
        points = _build_points(
            [(l1, l2) for l1 in L1_SHAPES[:3] for l2 in L2_SHAPES[:2]]
            + [(l1, None) for l1 in L1_SHAPES[:3]]
        )
        results = MultiConfigHierarchyEngine(points, policy).run(trace)
        records = list(
            zip(trace.addresses.tolist(), np.asarray(trace.is_write).tolist())
        )
        for actual, (l1_config, l2_config) in zip(results, points):
            _assert_point_matches(
                actual, l1_config, l2_config, records, policy
            )


class TestPolicyContract:
    L1 = _config(512, 32, 2, "L1")
    L2 = _config(4096, 64, 4, "L2")

    def test_shared_lane_does_not_couple_random_followers(self):
        # Many points behind ONE L1 lane: each follower must still see
        # its own fresh seed+1 stream, not a stream advanced by its
        # neighbours.
        followers = [
            _config(size, 64, assoc, f"L2-{size}-{assoc}")
            for size in (4096, 8192)
            for assoc in (1, 4, 8)
        ]
        points = [(self.L1, follower) for follower in followers]
        records = [((index * 13) * 32 % 16384, index % 3 == 0)
                   for index in range(2_000)]
        results = MultiConfigHierarchyEngine(points, policy="random").run(
            _buffer(records)
        )
        for actual, (l1_config, l2_config) in zip(results, points):
            _assert_point_matches(
                actual, l1_config, l2_config, records, "random"
            )

    @pytest.mark.parametrize("policy", POLICIES)
    def test_different_seeds_only_matter_for_random(self, policy):
        points = [(self.L1, self.L2)]
        records = [((index * 7) * 32 % 8192, index % 4 == 0)
                   for index in range(3_000)]
        base = MultiConfigHierarchyEngine(points, policy=policy, seed=0).run(
            _buffer(records)
        )
        other = MultiConfigHierarchyEngine(points, policy=policy, seed=99).run(
            _buffer(records)
        )
        if policy == "random":
            assert base != other  # the seed really reaches the kernels
        else:
            assert base == other
