"""Replacement policies for the set-associative simulator.

Policies operate on one set at a time.  A set is represented by the
simulator as an ordered dict of block-address -> line state; the policy
only decides *which* resident block to victimise and maintains whatever
recency metadata it needs via the ``on_access`` / ``on_fill`` hooks.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.errors import SimulationError

#: The replacement policies every simulator and calibration engine runs.
POLICIES = ("lru", "fifo", "random")


def check_policy(policy: str) -> str:
    """Return ``policy`` if it is one of :data:`POLICIES`, else raise."""
    if policy not in POLICIES:
        raise SimulationError(
            f"unknown replacement policy {policy!r}; expected one of "
            f"{POLICIES}"
        )
    return policy


class ReplacementPolicy:
    """Interface: per-set victim selection with recency hooks."""

    name = "base"

    def on_access(self, set_index: int, block: int) -> None:
        """Called on every hit to ``block`` in set ``set_index``."""

    def on_fill(self, set_index: int, block: int) -> None:
        """Called when ``block`` is installed into set ``set_index``."""

    def on_evict(self, set_index: int, block: int) -> None:
        """Called when ``block`` leaves set ``set_index``."""

    def choose_victim(self, set_index: int, resident: List[int]) -> int:
        """Return the block address to evict from ``resident`` (non-empty)."""
        raise NotImplementedError


class LruPolicy(ReplacementPolicy):
    """Least-recently-used: victimise the coldest block."""

    name = "lru"

    def __init__(self) -> None:
        self._clock = 0
        self._last_use: Dict[int, Dict[int, int]] = {}

    def _stamp(self, set_index: int, block: int) -> None:
        self._clock += 1
        self._last_use.setdefault(set_index, {})[block] = self._clock

    def on_access(self, set_index: int, block: int) -> None:
        self._stamp(set_index, block)

    def on_fill(self, set_index: int, block: int) -> None:
        self._stamp(set_index, block)

    def on_evict(self, set_index: int, block: int) -> None:
        self._last_use.get(set_index, {}).pop(block, None)

    def choose_victim(self, set_index: int, resident: List[int]) -> int:
        stamps = self._last_use.get(set_index, {})
        return min(resident, key=lambda block: stamps.get(block, -1))


class FifoPolicy(ReplacementPolicy):
    """First-in-first-out: victimise the oldest fill."""

    name = "fifo"

    def __init__(self) -> None:
        self._order: Dict[int, List[int]] = {}

    def on_fill(self, set_index: int, block: int) -> None:
        self._order.setdefault(set_index, []).append(block)

    def on_evict(self, set_index: int, block: int) -> None:
        queue = self._order.get(set_index, [])
        if block in queue:
            queue.remove(block)

    def choose_victim(self, set_index: int, resident: List[int]) -> int:
        queue = self._order.get(set_index, [])
        for block in queue:
            if block in resident:
                return block
        return resident[0]


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim (seeded for reproducibility)."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def choose_victim(self, set_index: int, resident: List[int]) -> int:
        return self._rng.choice(resident)


def make_policy(name: str, seed: int = 0) -> ReplacementPolicy:
    """Build a policy by name: ``"lru"``, ``"fifo"`` or ``"random"``."""
    check_policy(name)
    if name == "lru":
        return LruPolicy()
    if name == "fifo":
        return FifoPolicy()
    return RandomPolicy(seed=seed)
