"""Two-level cache hierarchy simulation.

The paper's Section 5 system: L1 backed by a unified L2 backed by main
memory.  The hierarchy is non-inclusive (the common 2005 design): L1
misses allocate in both levels; L1 dirty evictions are written back into
L2; L2 evictions do not invalidate L1 (the paper's statistics don't hinge
on inclusion policy, and non-inclusive is the simplest faithful choice).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.archsim.replacement import check_policy, make_policy
from repro.archsim.setassoc import SetAssociativeCache, _validate_shape
from repro.archsim.stats import CacheStats
from repro.archsim.trace import (
    DEFAULT_CHUNK,
    MemoryAccess,
    TraceLike,
    TraceStream,
    as_buffer,
)
from repro.cache.config import CacheConfig


@dataclass(frozen=True)
class HierarchyResult:
    """Statistics of one simulated trace through the hierarchy.

    ``memory_accesses`` counts every L2 miss (fills) plus L2 dirty
    write-backs — the quantity that multiplies main-memory energy in the
    Section 5 total-energy accounting.
    """

    l1: CacheStats
    l2: CacheStats
    memory_accesses: int

    @property
    def l1_miss_rate(self) -> float:
        return self.l1.miss_rate

    @property
    def l2_local_miss_rate(self) -> float:
        """L2 misses over L2 accesses (the paper's 'local' convention)."""
        return self.l2.miss_rate

    @property
    def l2_global_miss_rate(self) -> float:
        """L2 misses over *L1* accesses."""
        if self.l1.accesses == 0:
            return 0.0
        return self.l2.misses / self.l1.accesses


class TwoLevelHierarchy:
    """An L1 + L2 + memory simulator.

    Parameters
    ----------
    l1_config / l2_config:
        Architectural shapes (only size/block/associativity are used here;
        the circuit-level fields feed the power model, not the simulator).
    policy:
        Replacement policy name used at both levels (default LRU).
    """

    def __init__(
        self,
        l1_config: CacheConfig,
        l2_config: CacheConfig,
        policy: str = "lru",
        seed: int = 0,
    ) -> None:
        self.l1 = SetAssociativeCache(
            size_bytes=l1_config.size_bytes,
            block_bytes=l1_config.block_bytes,
            associativity=l1_config.associativity,
            policy=make_policy(policy, seed=seed),
            name=l1_config.name,
        )
        self.l2 = SetAssociativeCache(
            size_bytes=l2_config.size_bytes,
            block_bytes=l2_config.block_bytes,
            associativity=l2_config.associativity,
            policy=make_policy(policy, seed=seed + 1),
            name=l2_config.name,
        )
        self.memory_accesses = 0

    def access(self, access: MemoryAccess) -> None:
        """Propagate one access through L1 -> L2 -> memory."""
        l1_result = self.l1.access(access)
        if l1_result.hit:
            return
        # L1 dirty eviction writes back into L2.
        if l1_result.evicted_block is not None and l1_result.evicted_dirty:
            writeback = MemoryAccess(
                address=l1_result.evicted_block, is_write=True
            )
            l2_wb = self.l2.access(writeback)
            if not l2_wb.hit:
                self.memory_accesses += 1  # fill for the write-allocate
            if l2_wb.evicted_dirty:
                self.memory_accesses += 1
        # The demand miss itself goes to L2.
        l2_result = self.l2.access(
            MemoryAccess(address=access.address, is_write=False)
        )
        if not l2_result.hit:
            self.memory_accesses += 1
        if l2_result.evicted_dirty:
            self.memory_accesses += 1

    def run(self, trace: TraceStream) -> HierarchyResult:
        """Simulate a whole trace and return the statistics."""
        for access in trace:
            self.access(access)
        return self.result()

    def result(self) -> HierarchyResult:
        """Return statistics collected so far."""
        return HierarchyResult(
            l1=self.l1.stats,
            l2=self.l2.stats,
            memory_accesses=self.memory_accesses,
        )


class ArrayTwoLevelHierarchy:
    """Chunk-wise L1 + L2 + memory simulator.

    The array counterpart of :class:`TwoLevelHierarchy`: identical
    semantics (non-inclusive, write-back L1 evictions into L2, the
    write-back touching L2 *before* the demand miss), identical
    statistics on the same trace, but all per-access address arithmetic
    is vectorized per chunk and the residency core is one tight loop
    over per-set ordered dicts.  LRU keeps the dicts recency-ordered
    (pop + re-insert on hit); FIFO and random drop the re-insert so the
    dicts are fill-ordered, with FIFO evicting the first key and random
    drawing victims from two seeded :class:`random.Random` instances —
    L1 on ``seed``, L2 on ``seed + 1``, the same streams
    :class:`TwoLevelHierarchy` hands its per-level
    :class:`~repro.archsim.replacement.RandomPolicy` instances, so the
    statistics stay bit-identical under every policy.  Roughly an order
    of magnitude faster than the per-record simulator.
    """

    def __init__(
        self,
        l1_config: CacheConfig,
        l2_config: CacheConfig,
        policy: str = "lru",
        seed: int = 0,
    ) -> None:
        self.policy = check_policy(policy)
        self._l1_rng = (
            random.Random(seed) if policy == "random" else None
        )
        self._l2_rng = (
            random.Random(seed + 1) if policy == "random" else None
        )
        self.l1_n_sets = _validate_shape(
            l1_config.size_bytes,
            l1_config.block_bytes,
            l1_config.associativity,
            l1_config.name,
        )
        self.l2_n_sets = _validate_shape(
            l2_config.size_bytes,
            l2_config.block_bytes,
            l2_config.associativity,
            l2_config.name,
        )
        self.l1_config = l1_config
        self.l2_config = l2_config
        self.l1_stats = CacheStats()
        self.l2_stats = CacheStats()
        self.memory_accesses = 0
        self._l1_sets: List[Dict[int, bool]] = [
            {} for _ in range(self.l1_n_sets)
        ]
        self._l2_sets: List[Dict[int, bool]] = [
            {} for _ in range(self.l2_n_sets)
        ]

    def access_chunk(
        self, addresses: np.ndarray, is_write: np.ndarray
    ) -> None:
        """Propagate one chunk of accesses through L1 -> L2 -> memory."""
        l1_block_bytes = self.l1_config.block_bytes
        l2_block_bytes = self.l2_config.block_bytes
        l1_shift = l1_block_bytes.bit_length() - 1
        l2_shift = l2_block_bytes.bit_length() - 1
        l1_set_mask = self.l1_n_sets - 1
        l2_set_mask = self.l2_n_sets - 1

        l1_blocks = (addresses & -l1_block_bytes).tolist()
        l1_indices = ((addresses >> l1_shift) & l1_set_mask).tolist()
        l2_blocks = (addresses & -l2_block_bytes).tolist()
        l2_indices = ((addresses >> l2_shift) & l2_set_mask).tolist()
        writes = is_write.tolist()

        l1_sets = self._l1_sets
        l2_sets = self._l2_sets
        l1_assoc = self.l1_config.associativity
        l2_assoc = self.l2_config.associativity
        l2_neg_mask = -l2_block_bytes

        l1_hits = l1_misses = l1_read_misses = l1_write_misses = 0
        l1_evictions = l1_writebacks = 0
        l2_hits = l2_misses = l2_read_misses = l2_write_misses = 0
        l2_evictions = l2_writebacks = 0
        memory = 0

        if self.policy == "lru":
            for block, l1_index, demand_block, l2_index, write in zip(
                l1_blocks, l1_indices, l2_blocks, l2_indices, writes
            ):
                resident = l1_sets[l1_index]
                if block in resident:
                    l1_hits += 1
                    resident[block] = resident.pop(block) or write
                    continue
                l1_misses += 1
                if write:
                    l1_write_misses += 1
                else:
                    l1_read_misses += 1
                if len(resident) >= l1_assoc:
                    victim = next(iter(resident))
                    victim_dirty = resident.pop(victim)
                    l1_evictions += 1
                    if victim_dirty:
                        l1_writebacks += 1
                        # Dirty L1 eviction writes back into L2 first.
                        wb_block = victim & l2_neg_mask
                        wb_set = l2_sets[(wb_block >> l2_shift) & l2_set_mask]
                        if wb_block in wb_set:
                            l2_hits += 1
                            wb_set.pop(wb_block)
                            wb_set[wb_block] = True
                        else:
                            l2_misses += 1
                            l2_write_misses += 1
                            memory += 1  # fill for the write-allocate
                            if len(wb_set) >= l2_assoc:
                                l2_victim = next(iter(wb_set))
                                if wb_set.pop(l2_victim):
                                    l2_writebacks += 1
                                    memory += 1
                                l2_evictions += 1
                            wb_set[wb_block] = True
                resident[block] = write
                # The demand miss itself goes to L2 (as a read).
                demand_set = l2_sets[l2_index]
                if demand_block in demand_set:
                    l2_hits += 1
                    demand_set[demand_block] = demand_set.pop(demand_block)
                else:
                    l2_misses += 1
                    l2_read_misses += 1
                    memory += 1
                    if len(demand_set) >= l2_assoc:
                        l2_victim = next(iter(demand_set))
                        if demand_set.pop(l2_victim):
                            l2_writebacks += 1
                            memory += 1
                        l2_evictions += 1
                    demand_set[demand_block] = False
        else:
            # FIFO/random: hits never reorder, so each set dict stays in
            # fill order.  The per-level rngs (L1 on seed, L2 on seed+1)
            # fire once per eviction in trace order — the same draw
            # sequence the per-record RandomPolicy instances make.
            l1_choice = (
                self._l1_rng.choice if self._l1_rng is not None else None
            )
            l2_choice = (
                self._l2_rng.choice if self._l2_rng is not None else None
            )
            for block, l1_index, demand_block, l2_index, write in zip(
                l1_blocks, l1_indices, l2_blocks, l2_indices, writes
            ):
                resident = l1_sets[l1_index]
                if block in resident:
                    l1_hits += 1
                    if write:
                        resident[block] = True
                    continue
                l1_misses += 1
                if write:
                    l1_write_misses += 1
                else:
                    l1_read_misses += 1
                if len(resident) >= l1_assoc:
                    if l1_choice is not None:
                        victim = l1_choice(list(resident))
                    else:
                        victim = next(iter(resident))
                    victim_dirty = resident.pop(victim)
                    l1_evictions += 1
                    if victim_dirty:
                        l1_writebacks += 1
                        # Dirty L1 eviction writes back into L2 first.
                        wb_block = victim & l2_neg_mask
                        wb_set = l2_sets[(wb_block >> l2_shift) & l2_set_mask]
                        if wb_block in wb_set:
                            l2_hits += 1
                            wb_set[wb_block] = True
                        else:
                            l2_misses += 1
                            l2_write_misses += 1
                            memory += 1  # fill for the write-allocate
                            if len(wb_set) >= l2_assoc:
                                if l2_choice is not None:
                                    l2_victim = l2_choice(list(wb_set))
                                else:
                                    l2_victim = next(iter(wb_set))
                                if wb_set.pop(l2_victim):
                                    l2_writebacks += 1
                                    memory += 1
                                l2_evictions += 1
                            wb_set[wb_block] = True
                resident[block] = write
                # The demand miss itself goes to L2 (as a read).
                demand_set = l2_sets[l2_index]
                if demand_block in demand_set:
                    l2_hits += 1
                else:
                    l2_misses += 1
                    l2_read_misses += 1
                    memory += 1
                    if len(demand_set) >= l2_assoc:
                        if l2_choice is not None:
                            l2_victim = l2_choice(list(demand_set))
                        else:
                            l2_victim = next(iter(demand_set))
                        if demand_set.pop(l2_victim):
                            l2_writebacks += 1
                            memory += 1
                        l2_evictions += 1
                    demand_set[demand_block] = False

        for stats, hits, misses, read_misses, write_misses, evictions, \
                writebacks in (
            (self.l1_stats, l1_hits, l1_misses, l1_read_misses,
             l1_write_misses, l1_evictions, l1_writebacks),
            (self.l2_stats, l2_hits, l2_misses, l2_read_misses,
             l2_write_misses, l2_evictions, l2_writebacks),
        ):
            stats.accesses += hits + misses
            stats.hits += hits
            stats.misses += misses
            stats.read_misses += read_misses
            stats.write_misses += write_misses
            stats.evictions += evictions
            stats.writebacks += writebacks
        self.memory_accesses += memory

    def run(
        self, trace: TraceLike, chunk_size: int = DEFAULT_CHUNK
    ) -> HierarchyResult:
        """Simulate a whole trace and return the statistics."""
        for chunk in as_buffer(trace).iter_chunks(chunk_size):
            self.access_chunk(chunk.addresses, np.asarray(chunk.is_write))
        return self.result()

    def result(self) -> HierarchyResult:
        """Return statistics collected so far."""
        return HierarchyResult(
            l1=self.l1_stats,
            l2=self.l2_stats,
            memory_accesses=self.memory_accesses,
        )


def simulate_hierarchy(
    l1_config: CacheConfig,
    l2_config: CacheConfig,
    trace: TraceLike,
    policy: str = "lru",
    seed: int = 0,
) -> HierarchyResult:
    """Run a trace through :class:`ArrayTwoLevelHierarchy`."""
    return ArrayTwoLevelHierarchy(l1_config, l2_config, policy, seed).run(
        trace
    )
