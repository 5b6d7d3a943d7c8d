"""The per-set Mattson profiler must match per-point simulation *exactly*.

`per_set_profiles` / `two_level_profiles` answer every (n_sets, assoc)
LRU point from one contraction-cascade pass — shared address decode,
per-level contraction, backward overflow carry between grid levels.
None of that sharing may show up in the numbers: every miss count must
be bit-identical to running `ArraySetAssociativeCache` (single level) or
`ArrayTwoLevelHierarchy` (L2 behind the reference L1) once for that
point alone — across random grids, workloads, block sizes, and oracle
chunk sizes, including the direct-mapped (assoc=1) and fully-associative
(n_sets=1) degenerate geometries.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.archsim.hierarchy import ArrayTwoLevelHierarchy
from repro.archsim.setassoc import ArraySetAssociativeCache
from repro.archsim.setdist import (
    SetDistanceProfile,
    per_set_profiles,
    reference_event_stream,
    two_level_profiles,
)
from repro.archsim.stackdist import stack_distance_profile
from repro.archsim.trace import TraceBuffer
from repro.archsim.workloads import SPEC2000_LIKE, synthetic_trace_buffer
from repro.cache.config import CacheConfig
from repro.errors import SimulationError


traces = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1 << 15),
        st.booleans(),
    ),
    min_size=0,
    max_size=400,
)

#: Power-of-two associativities the pow2-size oracle can simulate.
POW2_ASSOCS = (1, 2, 4, 8, 16)

set_count_grids = st.lists(
    st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
    min_size=1,
    max_size=4,
    unique=True,
)

chunk_sizes = st.sampled_from([1, 3, 64, 1000])


def _buffer(records):
    return TraceBuffer(
        np.array([address for address, _ in records], dtype=np.int64),
        np.array([write for _, write in records], dtype=bool),
    )


class TestPerSetEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        records=traces,
        set_counts=set_count_grids,
        block_bytes=st.sampled_from([32, 64]),
        depth_cap=st.sampled_from([1, 2, 4, 8, 16]),
        chunk_size=chunk_sizes,
    )
    def test_single_level_bit_identical(
        self, records, set_counts, block_bytes, depth_cap, chunk_size
    ):
        profiles = per_set_profiles(
            _buffer(records),
            set_counts=set_counts,
            block_bytes=block_bytes,
            depth_cap=depth_cap,
        )
        for n_sets in set_counts:
            profile = profiles[n_sets]
            for assoc in POW2_ASSOCS:
                if assoc > depth_cap:
                    continue
                oracle = ArraySetAssociativeCache(
                    n_sets * assoc * block_bytes, block_bytes, assoc
                ).run(_buffer(records), chunk_size=chunk_size)
                assert profile.miss_count(assoc) == oracle.misses
                assert profile.total_accesses == oracle.accesses

    @settings(max_examples=40, deadline=None)
    @given(
        records=traces,
        ref_sets=st.sampled_from([1, 2, 4, 8, 16]),
        ref_assoc=st.sampled_from([1, 2]),
        l2_set_counts=st.lists(
            st.sampled_from([1, 2, 4, 8, 16, 32]),
            min_size=1,
            max_size=3,
            unique=True,
        ),
        l2_depth_cap=st.sampled_from([1, 2, 8, 16]),
        chunk_size=chunk_sizes,
    )
    def test_two_level_bit_identical(
        self, records, ref_sets, ref_assoc, l2_set_counts, l2_depth_cap,
        chunk_size,
    ):
        l1_profiles, l2_profiles = two_level_profiles(
            _buffer(records),
            l1_set_counts=[ref_sets],
            l2_set_counts=l2_set_counts,
            ref_sets=ref_sets,
            ref_assoc=ref_assoc,
            l1_block_bytes=32,
            l2_block_bytes=64,
            l1_depth_cap=2,
            l2_depth_cap=l2_depth_cap,
        )
        l1_config = CacheConfig(
            size_bytes=ref_sets * ref_assoc * 32,
            block_bytes=32,
            associativity=ref_assoc,
        )
        for n_sets in l2_set_counts:
            for assoc in POW2_ASSOCS:
                if assoc > l2_depth_cap:
                    continue
                l2_config = CacheConfig(
                    size_bytes=n_sets * assoc * 64,
                    block_bytes=64,
                    associativity=assoc,
                )
                expected = ArrayTwoLevelHierarchy(
                    l1_config, l2_config, "lru"
                ).run(_buffer(records), chunk_size=chunk_size)
                assert (
                    l1_profiles[ref_sets].miss_count(ref_assoc)
                    == expected.l1.misses
                )
                assert (
                    l2_profiles[n_sets].miss_count(assoc)
                    == expected.l2.misses
                )
                assert (
                    l2_profiles[n_sets].total_accesses
                    == expected.l2.accesses
                )

    @settings(max_examples=40, deadline=None)
    @given(
        records=traces,
        ref_sets=st.sampled_from([1, 2, 4, 8, 16]),
        ref_assoc=st.sampled_from([1, 2]),
        l2_set_counts=st.lists(
            st.sampled_from([1, 2, 4, 8, 16, 32]),
            min_size=1,
            max_size=3,
            unique=True,
        ),
    )
    def test_reference_event_stream_matches_oracle(
        self, records, ref_sets, ref_assoc, l2_set_counts
    ):
        """The reconstructed demand-miss + dirty-write-back stream behind
        the reference L1, profiled per set on its own, reproduces the
        oracle L2's accesses and misses exactly."""
        self._assert_event_stream_exact(
            _buffer(records), ref_sets, ref_assoc, l2_set_counts
        )

    def test_reference_event_stream_on_workload_trace(self):
        buffer = synthetic_trace_buffer(SPEC2000_LIKE, 20_000, seed=5)
        self._assert_event_stream_exact(buffer, 64, 2, [16, 64, 256])

    @staticmethod
    def _assert_event_stream_exact(buffer, ref_sets, ref_assoc,
                                   l2_set_counts):
        stream, total = reference_event_stream(
            buffer, ref_sets=ref_sets, ref_assoc=ref_assoc,
            l1_block_bytes=32, l2_block_bytes=64,
        )
        assert stream.size == total
        profiles = per_set_profiles(
            stream * 64, set_counts=l2_set_counts, block_bytes=64,
            depth_cap=8,
        )
        l1_config = CacheConfig(
            size_bytes=ref_sets * ref_assoc * 32,
            block_bytes=32,
            associativity=ref_assoc,
        )
        for n_sets in l2_set_counts:
            for assoc in (1, 2, 4, 8):
                expected = ArrayTwoLevelHierarchy(
                    l1_config,
                    CacheConfig(
                        size_bytes=n_sets * assoc * 64,
                        block_bytes=64,
                        associativity=assoc,
                    ),
                    "lru",
                ).run(buffer)
                assert profiles[n_sets].total_accesses == expected.l2.accesses
                assert profiles[n_sets].miss_count(assoc) == expected.l2.misses

    @settings(max_examples=40, deadline=None)
    @given(records=traces, depth_cap=st.sampled_from([2, 8, 32]))
    def test_fully_associative_matches_classic_mattson(
        self, records, depth_cap
    ):
        """n_sets=1 degenerates to the classic stack-distance profile."""
        profiles = per_set_profiles(
            _buffer(records), set_counts=[1], block_bytes=64,
            depth_cap=depth_cap,
        )
        classic = stack_distance_profile(_buffer(records), block_bytes=64)
        for capacity in range(1, depth_cap + 1):
            predicted = classic.miss_rate(capacity) * classic.total_accesses
            assert profiles[1].miss_count(capacity) == round(predicted)

    def test_workload_trace_matches_oracle(self):
        """A realistic synthetic trace, not just hypothesis lists."""
        buffer = synthetic_trace_buffer(SPEC2000_LIKE, 20_000, seed=7)
        profiles = per_set_profiles(
            buffer, set_counts=[16, 64, 256], block_bytes=32, depth_cap=8
        )
        for n_sets in (16, 64, 256):
            for assoc in (1, 2, 4, 8):
                oracle = ArraySetAssociativeCache(
                    n_sets * assoc * 32, 32, assoc
                ).run(buffer)
                assert profiles[n_sets].miss_count(assoc) == oracle.misses


class TestProfileObject:
    def test_depth_counts_partition_the_trace(self):
        buffer = synthetic_trace_buffer(SPEC2000_LIKE, 5_000, seed=3)
        profiles = per_set_profiles(
            buffer, set_counts=[8, 32], block_bytes=64, depth_cap=4
        )
        for profile in profiles.values():
            assert (
                profile.cold_misses + sum(profile.depth_counts)
                == profile.total_accesses
            )

    def test_min_assoc_window_skip_is_exact_above_floor(self):
        buffer = synthetic_trace_buffer(SPEC2000_LIKE, 5_000, seed=3)
        full = per_set_profiles(
            buffer, set_counts=[16], block_bytes=64, depth_cap=8
        )[16]
        skipped = per_set_profiles(
            buffer, set_counts=[16], block_bytes=64, depth_cap=8,
            min_assoc=4,
        )[16]
        for assoc in (4, 8):
            assert skipped.miss_count(assoc) == full.miss_count(assoc)
        with pytest.raises(SimulationError):
            skipped.miss_count(2)

    def test_empty_trace(self):
        empty = TraceBuffer(np.array([], np.int64), np.array([], bool))
        profiles = per_set_profiles(
            empty, set_counts=[4], block_bytes=64, depth_cap=2
        )
        assert profiles[4].miss_rate(2) == 0.0
        assert profiles[4].total_accesses == 0
        l1_profiles, l2_profiles = two_level_profiles(
            empty, l1_set_counts=[4], l2_set_counts=[8], ref_sets=4,
            l1_depth_cap=2, l2_depth_cap=8,
        )
        assert l2_profiles[8].total_accesses == 0

    def test_size_bytes(self):
        profile = SetDistanceProfile(
            block_bytes=64, n_sets=8, depth_cap=4, min_assoc=1,
            cold_misses=0, total_accesses=0, depth_counts=(0,) * 5,
        )
        assert profile.size_bytes(2) == 1024


class TestValidation:
    def test_rejects_non_pow2_block(self):
        buffer = _buffer([(0, False)])
        with pytest.raises(SimulationError):
            per_set_profiles(
                buffer, set_counts=[4], block_bytes=48, depth_cap=2
            )

    def test_rejects_non_pow2_set_count(self):
        buffer = _buffer([(0, False)])
        with pytest.raises(SimulationError):
            per_set_profiles(
                buffer, set_counts=[3], block_bytes=64, depth_cap=2
            )

    def test_rejects_depth_cap_out_of_range(self):
        buffer = _buffer([(0, False)])
        for depth_cap in (0, 128):
            with pytest.raises(SimulationError):
                per_set_profiles(
                    buffer, set_counts=[4], block_bytes=64,
                    depth_cap=depth_cap,
                )

    def test_rejects_min_assoc_above_cap(self):
        buffer = _buffer([(0, False)])
        with pytest.raises(SimulationError):
            per_set_profiles(
                buffer, set_counts=[4], block_bytes=64, depth_cap=2,
                min_assoc=3,
            )

    def test_rejects_wide_reference_assoc(self):
        buffer = _buffer([(0, False)])
        with pytest.raises(SimulationError):
            two_level_profiles(
                buffer, l1_set_counts=[4], l2_set_counts=[8], ref_sets=4,
                ref_assoc=4, l1_depth_cap=4, l2_depth_cap=8,
            )

    def test_rejects_assoc_outside_profiled_range(self):
        buffer = _buffer([(0, False), (64, False)])
        profile = per_set_profiles(
            buffer, set_counts=[1], block_bytes=64, depth_cap=2
        )[1]
        with pytest.raises(SimulationError):
            profile.miss_count(3)
        with pytest.raises(SimulationError):
            profile.miss_count(0)
