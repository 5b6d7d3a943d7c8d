"""Write-back, write-allocate set-associative cache simulators.

Two implementations of the same semantics:

* :class:`SetAssociativeCache` — the original per-record simulator with
  pluggable replacement policies; one :class:`AccessResult` per access.
* :class:`ArraySetAssociativeCache` — the high-throughput engine:
  consumes address/write arrays chunk-wise, does the block/set
  arithmetic as numpy vector ops and runs a tight per-set ordered-dict
  core.  LRU, FIFO and seeded-random replacement are supported — FIFO
  is the LRU dict trick *without* the reinsert-on-hit (insertion order
  then is fill order), and random keeps the same fill-order dict but
  draws the victim from a seeded :class:`random.Random`.  Statistics
  are bit-identical to the per-record simulator with the matching
  :mod:`~repro.archsim.replacement` policy on the same trace (the
  property suite locks this in).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.units import is_power_of_two
from repro.archsim.replacement import (
    LruPolicy,
    ReplacementPolicy,
    check_policy,
)
from repro.archsim.stats import CacheStats
from repro.archsim.trace import (
    DEFAULT_CHUNK,
    MemoryAccess,
    TraceLike,
    as_buffer,
)


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one access.

    Attributes
    ----------
    hit:
        True if the block was resident.
    evicted_block:
        Block address evicted to make room, or None.
    evicted_dirty:
        True if the eviction was a dirty write-back.
    """

    hit: bool
    evicted_block: Optional[int] = None
    evicted_dirty: bool = False


class SetAssociativeCache:
    """One level of cache: write-back, write-allocate.

    Parameters
    ----------
    size_bytes / block_bytes / associativity:
        The usual shape parameters (powers of two).
    policy:
        Replacement policy instance; defaults to a fresh LRU.
    name:
        Label for error messages and reports.
    """

    def __init__(
        self,
        size_bytes: int,
        block_bytes: int,
        associativity: int,
        policy: Optional[ReplacementPolicy] = None,
        name: str = "cache",
    ) -> None:
        for label, value in (
            ("size_bytes", size_bytes),
            ("block_bytes", block_bytes),
            ("associativity", associativity),
        ):
            if not is_power_of_two(value):
                raise SimulationError(
                    f"{name}: {label} must be a power of two, got {value}"
                )
        n_blocks = size_bytes // block_bytes
        if associativity > n_blocks:
            raise SimulationError(
                f"{name}: associativity {associativity} exceeds "
                f"{n_blocks} blocks"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.block_bytes = block_bytes
        self.associativity = associativity
        self.n_sets = n_blocks // associativity
        self.policy = policy if policy is not None else LruPolicy()
        self.stats = CacheStats()
        # set index -> {block address: dirty}
        self._sets: Dict[int, Dict[int, bool]] = {}

    # -- addressing -----------------------------------------------------

    def set_index(self, block_address: int) -> int:
        """Return the set an aligned block address maps to."""
        return (block_address // self.block_bytes) % self.n_sets

    # -- main entry -----------------------------------------------------

    def access(self, access: MemoryAccess) -> AccessResult:
        """Simulate one access; returns hit/miss and any eviction."""
        block = access.block_address(self.block_bytes)
        index = self.set_index(block)
        resident = self._sets.setdefault(index, {})

        if block in resident:
            self.stats.record_hit()
            self.policy.on_access(index, block)
            if access.is_write:
                resident[block] = True
            return AccessResult(hit=True)

        self.stats.record_miss(access.is_write)
        evicted_block: Optional[int] = None
        evicted_dirty = False
        if len(resident) >= self.associativity:
            victim = self.policy.choose_victim(index, list(resident))
            # pop() doubles as the residency check: validating membership
            # up front would cost every miss for a condition only a buggy
            # policy can produce.
            try:
                evicted_dirty = resident.pop(victim)
            except KeyError:
                raise SimulationError(
                    f"{self.name}: policy chose non-resident victim {victim}"
                )
            evicted_block = victim
            self.policy.on_evict(index, victim)
            self.stats.record_eviction(evicted_dirty)
        resident[block] = access.is_write
        self.policy.on_fill(index, block)
        return AccessResult(
            hit=False, evicted_block=evicted_block, evicted_dirty=evicted_dirty
        )

    # -- introspection ----------------------------------------------------

    def contains(self, address: int) -> bool:
        """Return True if the block holding ``address`` is resident."""
        block = address - (address % self.block_bytes)
        return block in self._sets.get(self.set_index(block), {})

    def resident_blocks(self) -> int:
        """Return the number of blocks currently resident."""
        return sum(len(blocks) for blocks in self._sets.values())

    def invalidate(self, address: int) -> bool:
        """Drop the block holding ``address``; True if it was resident."""
        block = address - (address % self.block_bytes)
        index = self.set_index(block)
        resident = self._sets.get(index, {})
        if block in resident:
            del resident[block]
            self.policy.on_evict(index, block)
            return True
        return False

    def flush(self) -> int:
        """Empty the cache; return how many dirty blocks were dropped."""
        dirty = sum(
            1
            for blocks in self._sets.values()
            for is_dirty in blocks.values()
            if is_dirty
        )
        self._sets.clear()
        return dirty


def _validate_shape(
    size_bytes: int, block_bytes: int, associativity: int, name: str
) -> int:
    """Shared shape validation; returns the set count."""
    for label, value in (
        ("size_bytes", size_bytes),
        ("block_bytes", block_bytes),
        ("associativity", associativity),
    ):
        if not is_power_of_two(value):
            raise SimulationError(
                f"{name}: {label} must be a power of two, got {value}"
            )
    n_blocks = size_bytes // block_bytes
    if associativity > n_blocks:
        raise SimulationError(
            f"{name}: associativity {associativity} exceeds "
            f"{n_blocks} blocks"
        )
    return n_blocks // associativity


class ArraySetAssociativeCache:
    """Chunk-wise set-associative simulator (write-back, write-alloc).

    Each set is a plain dict mapping block address -> dirty bit.  Under
    LRU the insertion order *is* the recency order: hits pop and
    re-insert, fills append, and the victim is the first key — exactly
    the stamp-ordering :class:`~repro.archsim.replacement.LruPolicy`
    maintains.  Under FIFO and random the hit re-insert is dropped, so
    insertion order is *fill* order: FIFO victimises the first key, and
    random draws the victim from the fill-ordered keys with a seeded
    :class:`random.Random` — the same draw sequence
    :class:`~repro.archsim.replacement.RandomPolicy` makes, since the
    per-record simulator's set dicts are fill-ordered too (its hits
    assign in place).  Hits/misses/evictions/write-backs therefore match
    the per-record simulator count for count under every policy.

    Per-access validation is hoisted to the chunk boundary: the numpy
    coercion in :func:`~repro.archsim.trace.as_buffer` (or the
    :class:`~repro.archsim.trace.TraceBuffer` constructor) is the only
    input check, and the inner loop runs on Python ints from
    ``ndarray.tolist()``.
    """

    def __init__(
        self,
        size_bytes: int,
        block_bytes: int,
        associativity: int,
        name: str = "cache",
        policy: str = "lru",
        seed: int = 0,
    ) -> None:
        self.n_sets = _validate_shape(
            size_bytes, block_bytes, associativity, name
        )
        self.name = name
        self.size_bytes = size_bytes
        self.block_bytes = block_bytes
        self.associativity = associativity
        self.policy = check_policy(policy)
        self.stats = CacheStats()
        self._rng = random.Random(seed) if policy == "random" else None
        self._sets: List[Dict[int, bool]] = [
            {} for _ in range(self.n_sets)
        ]
        self._block_shift = block_bytes.bit_length() - 1

    # -- addressing -----------------------------------------------------

    def set_index(self, block_address: int) -> int:
        """Return the set an aligned block address maps to."""
        return (block_address >> self._block_shift) & (self.n_sets - 1)

    # -- main entry -----------------------------------------------------

    def access_chunk(
        self, addresses: np.ndarray, is_write: np.ndarray
    ) -> None:
        """Simulate one chunk of accesses, updating ``self.stats``."""
        blocks = (addresses & -self.block_bytes).tolist()
        set_indices = (
            (addresses >> self._block_shift) & (self.n_sets - 1)
        ).tolist()
        writes = is_write.tolist()

        sets = self._sets
        associativity = self.associativity
        rng_choice = self._rng.choice if self._rng is not None else None
        lru = self.policy == "lru"
        hits = misses = read_misses = write_misses = 0
        evictions = writebacks = 0
        if lru:
            for block, index, write in zip(blocks, set_indices, writes):
                resident = sets[index]
                if block in resident:
                    hits += 1
                    dirty = resident.pop(block)
                    resident[block] = dirty or write
                    continue
                misses += 1
                if write:
                    write_misses += 1
                else:
                    read_misses += 1
                if len(resident) >= associativity:
                    victim = next(iter(resident))
                    if resident.pop(victim):
                        writebacks += 1
                    evictions += 1
                resident[block] = write
        else:
            # FIFO/random: hits leave the dict order alone, so insertion
            # order is fill order.  FIFO evicts the oldest fill; random
            # draws from the fill-ordered keys exactly as RandomPolicy
            # does from the per-record simulator's set dict.
            for block, index, write in zip(blocks, set_indices, writes):
                resident = sets[index]
                if block in resident:
                    hits += 1
                    if write:
                        resident[block] = True
                    continue
                misses += 1
                if write:
                    write_misses += 1
                else:
                    read_misses += 1
                if len(resident) >= associativity:
                    if rng_choice is not None:
                        victim = rng_choice(list(resident))
                    else:
                        victim = next(iter(resident))
                    if resident.pop(victim):
                        writebacks += 1
                    evictions += 1
                resident[block] = write

        stats = self.stats
        stats.accesses += hits + misses
        stats.hits += hits
        stats.misses += misses
        stats.read_misses += read_misses
        stats.write_misses += write_misses
        stats.evictions += evictions
        stats.writebacks += writebacks

    def run(
        self, trace: TraceLike, chunk_size: int = DEFAULT_CHUNK
    ) -> CacheStats:
        """Simulate a whole trace; returns the accumulated stats."""
        for chunk in as_buffer(trace).iter_chunks(chunk_size):
            self.access_chunk(chunk.addresses, np.asarray(chunk.is_write))
        return self.stats

    # -- introspection --------------------------------------------------

    def contains(self, address: int) -> bool:
        """Return True if the block holding ``address`` is resident."""
        block = address & -self.block_bytes
        return block in self._sets[self.set_index(block)]

    def resident_blocks(self) -> int:
        """Return the number of blocks currently resident."""
        return sum(len(blocks) for blocks in self._sets)

    def flush(self) -> int:
        """Empty the cache; return how many dirty blocks were dropped."""
        dirty = sum(
            1
            for blocks in self._sets
            for is_dirty in blocks.values()
            if is_dirty
        )
        for blocks in self._sets:
            blocks.clear()
        return dirty
