"""Replacement policies against hand-crafted sequences."""

import pytest

from repro.archsim.replacement import (
    FifoPolicy,
    LruPolicy,
    POLICIES,
    RandomPolicy,
    check_policy,
    make_policy,
)
from repro.errors import SimulationError


class TestLru:
    def test_victim_is_least_recent(self):
        policy = LruPolicy()
        for block in (0, 64, 128):
            policy.on_fill(0, block)
        policy.on_access(0, 0)  # 0 becomes most recent
        assert policy.choose_victim(0, [0, 64, 128]) == 64

    def test_fill_counts_as_use(self):
        policy = LruPolicy()
        policy.on_fill(0, 0)
        policy.on_fill(0, 64)
        assert policy.choose_victim(0, [0, 64]) == 0

    def test_sets_are_independent(self):
        policy = LruPolicy()
        policy.on_fill(0, 0)
        policy.on_fill(1, 64)
        policy.on_access(0, 0)
        # Set 1 only holds 64.
        assert policy.choose_victim(1, [64]) == 64

    def test_eviction_clears_metadata(self):
        policy = LruPolicy()
        policy.on_fill(0, 0)
        policy.on_evict(0, 0)
        policy.on_fill(0, 64)
        # Re-filled 0 would have a fresh stamp if it returned.
        policy.on_fill(0, 0)
        assert policy.choose_victim(0, [0, 64]) == 64


class TestFifo:
    def test_victim_is_oldest_fill(self):
        policy = FifoPolicy()
        for block in (0, 64, 128):
            policy.on_fill(0, block)
        policy.on_access(0, 0)  # access must NOT refresh FIFO order
        assert policy.choose_victim(0, [0, 64, 128]) == 0

    def test_eviction_removes_from_queue(self):
        policy = FifoPolicy()
        policy.on_fill(0, 0)
        policy.on_fill(0, 64)
        policy.on_evict(0, 0)
        assert policy.choose_victim(0, [64]) == 64


class TestRandom:
    def test_seeded_and_deterministic(self):
        a = RandomPolicy(seed=42)
        b = RandomPolicy(seed=42)
        resident = [0, 64, 128, 192]
        picks_a = [a.choose_victim(0, resident) for _ in range(10)]
        picks_b = [b.choose_victim(0, resident) for _ in range(10)]
        assert picks_a == picks_b

    def test_picks_resident_blocks(self):
        policy = RandomPolicy(seed=1)
        resident = [0, 64]
        for _ in range(20):
            assert policy.choose_victim(0, resident) in resident


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("lru", LruPolicy), ("fifo", FifoPolicy), ("random", RandomPolicy)
    ])
    def test_make_policy(self, name, cls):
        assert isinstance(make_policy(name), cls)

    def test_unknown_policy(self):
        with pytest.raises(SimulationError):
            make_policy("plru")

    def test_check_policy(self):
        for name in POLICIES:
            assert check_policy(name) == name
        with pytest.raises(SimulationError, match="replacement policy"):
            check_policy("mru")
