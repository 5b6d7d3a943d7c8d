"""The FIFO and random kernels must match per-point runs *exactly*.

Companion to ``tests/archsim/test_multiconfig.py`` with a direct-mapped
L2 shape and seed coverage: the fill-order slot/dict encodings and the
per-cache rng streams may not shift any
statistic of any point relative to running ``ArrayTwoLevelHierarchy``
once for that point alone — across random grids, chunk sizes, seeds,
and workload shapes.  Random is the sharpest probe: one extra or missing
rng draw anywhere desynchronises every later victim choice.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.archsim.hierarchy import ArrayTwoLevelHierarchy
from repro.archsim.multiconfig import (
    MultiConfigHierarchyEngine,
    _predraw,
    _state_for,
)
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
# generated kernel variant (slot1, fslot2/rslot2, fdict/rdict) is
# exercised.
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


class TestPredrawnVictims:
    @pytest.mark.parametrize("assoc", [2, 4, 8, 16])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**16 + 3])
    def test_indices_follow_choice_across_refills(self, assoc, seed):
        # Each top-up continues the stream where the last one stopped,
        # and unused indices carry over, as between chunks.
        state = _state_for((assoc * 64 * 4, 64, assoc), "L2",
                           events=False, policy="random", seed=seed)
        used = []
        for need, take in ((50, 30), (200, 200), (10, 5), (1000, 400)):
            _predraw(state, need)
            draws = state["draws"]
            assert len(draws) >= need
            used += list(draws[:take])
            state["draws"] = draws[take:]
        rng = random.Random(seed)
        assert used == [rng.choice(range(assoc)) for _ in used]

    def test_direct_mapped_random_draws_nothing(self):
        # One candidate per set: random evicts exactly what FIFO does,
        # whatever the seed.
        points = [
            (_config(512, 32, 1, "L1"), _config(4096, 64, 1, "L2")),
            (_config(1024, 32, 1, "L1"), None),
        ]
        records = [((index * 13) * 32 % 16384, index % 3 == 0)
                   for index in range(3_000)]
        fifo = MultiConfigHierarchyEngine(points, "fifo").run(
            _buffer(records))
        for seed in (0, 5):
            engine = MultiConfigHierarchyEngine(points, "random", seed=seed)
            assert all("rng" not in state
                       for group in engine._lane_groups
                       for state in group.states)
            assert engine.run(_buffer(records)) == fifo


class TestPerSetCompression:
    #: Shapes whose coarsest set count (8 sets) separates the two
    #: interleaved blocks of each round.
    POINTS = [
        (_config(512, 32, 2, "L1"), _config(4096, 64, 4, "L2")),
        (_config(512, 32, 1, "L1"), _config(4096, 64, 1, "L2")),
        (_config(1024, 32, 2, "L1"), None),
    ]

    @staticmethod
    def _interleaved():
        # Rounds of a, b, a, b, ... with a in set 0 and b in set 1; the
        # rounds conflict in every set, so dirty victims are written
        # back.  No two consecutive accesses share a block, so a global
        # run compression would drop nothing.
        records = []
        for round_ in range(3):
            a, b = round_ * 4096, round_ * 4096 + 32
            records += [(a if index % 2 == 0 else b, index % 5 == 0)
                        for index in range(400)]
        return records

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("seed", [0, 3])
    def test_interleaved_sets_exact_with_fewer_events(self, policy, seed):
        records = self._interleaved()
        blocks = np.array([address for address, _ in records]) & -32
        assert np.all(blocks[1:] != blocks[:-1])
        engine = MultiConfigHierarchyEngine(self.POINTS, policy, seed=seed)
        fed = []

        def counting(runner):
            def run(bl, *rest):
                fed.append(len(bl))
                return runner(bl, *rest)
            return run

        for group in engine._lane_groups:
            group.runner = counting(group.runner)
        results = engine.run(_buffer(records), chunk_size=len(records))
        # Two in-set runs per round reach the L1 kernels.
        assert fed == [6]
        for actual, (l1_config, l2_config) in zip(results, self.POINTS):
            _assert_point_matches(
                actual, l1_config, l2_config, records, policy, seed
            )
