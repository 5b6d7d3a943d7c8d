"""Architectural simulation substrate.

Section 5 of the paper uses "architectural simulations to gather cache
access statistics for each L1 and L2 cache size combination", collected
from SPEC2000, SPECWEB and TPC-C.  We do not have those proprietary traces
or the authors' simulator, so this package builds the equivalent pipeline:

* :mod:`~repro.archsim.trace` — memory-access records, streams, and the
  struct-of-arrays :class:`TraceBuffer` the array engines consume;
* :mod:`~repro.archsim.workloads` — seeded synthetic address generators
  parameterised to reproduce the published locality profiles of the three
  suites (power-law reuse + streaming + working-set mixes), in both
  per-record and vectorized (:func:`synthetic_trace_buffer`) forms;
* :mod:`~repro.archsim.replacement` — LRU / FIFO / random policies;
* :mod:`~repro.archsim.setassoc` — write-back set-associative caches:
  per-record with pluggable policies, and the chunked array engine with
  LRU / FIFO / seeded-random fast paths;
* :mod:`~repro.archsim.hierarchy` — the two-level L1/L2/memory system
  (per-record and array variants, statistics bit-identical);
* :mod:`~repro.archsim.multiconfig` — the batched FIFO/random
  calibration engine: simulates a whole (L1, L2) configuration grid in
  one trace sweep with generated fused kernels, bit-identical per point
  to :class:`ArrayTwoLevelHierarchy`;
* :mod:`~repro.archsim.stats` — hit/miss accounting;
* :mod:`~repro.archsim.missmodel` — an analytical miss-rate model
  calibrated against the simulator (disk-memoized), used by
  the optimisers so that design sweeps don't re-simulate millions of
  accesses per candidate;
* :mod:`~repro.archsim.stackdist` — Mattson stack-distance profiling in
  O(n log n) (vectorized offline + streaming Fenwick engines; one pass
  predicts the whole miss-rate-vs-size curve);
* :mod:`~repro.archsim.setdist` — the per-set generalisation: one
  contraction-cascade pass answers every set-associative (size, assoc)
  LRU point exactly, the engine behind LRU calibration;
* :mod:`~repro.archsim.amat` — average memory access time.
"""

from repro.archsim.trace import (
    DEFAULT_CHUNK,
    MemoryAccess,
    TraceBuffer,
    TraceStream,
    as_buffer,
)
from repro.archsim.stats import CacheStats
from repro.archsim.replacement import (
    ReplacementPolicy,
    LruPolicy,
    FifoPolicy,
    RandomPolicy,
    make_policy,
)
from repro.archsim.setassoc import ArraySetAssociativeCache, SetAssociativeCache
from repro.archsim.hierarchy import (
    ArrayTwoLevelHierarchy,
    HierarchyResult,
    TwoLevelHierarchy,
    simulate_hierarchy,
)
from repro.archsim.workloads import (
    WorkloadSpec,
    synthetic_trace,
    synthetic_trace_buffer,
    synthetic_trace_chunks,
    SPEC2000_LIKE,
    SPECWEB_LIKE,
    TPCC_LIKE,
    STANDARD_WORKLOADS,
)
from repro.archsim.multiconfig import MultiConfigHierarchyEngine
from repro.archsim.missmodel import (
    MissRateModel,
    blended_miss_model,
    calibrated_miss_model,
    measure_miss_model,
)
from repro.archsim.setdist import (
    SetDistanceProfile,
    per_set_profiles,
    two_level_profiles,
)
from repro.archsim.stackdist import (
    FenwickTree,
    OlkenProfiler,
    StackDistanceProfile,
    stack_distance_profile,
)
from repro.archsim.amat import amat_two_level

__all__ = [
    "DEFAULT_CHUNK",
    "MemoryAccess",
    "TraceBuffer",
    "TraceStream",
    "as_buffer",
    "CacheStats",
    "ReplacementPolicy",
    "LruPolicy",
    "FifoPolicy",
    "RandomPolicy",
    "make_policy",
    "SetAssociativeCache",
    "ArraySetAssociativeCache",
    "TwoLevelHierarchy",
    "ArrayTwoLevelHierarchy",
    "HierarchyResult",
    "simulate_hierarchy",
    "MultiConfigHierarchyEngine",
    "WorkloadSpec",
    "synthetic_trace",
    "synthetic_trace_buffer",
    "synthetic_trace_chunks",
    "SPEC2000_LIKE",
    "SPECWEB_LIKE",
    "TPCC_LIKE",
    "STANDARD_WORKLOADS",
    "MissRateModel",
    "blended_miss_model",
    "calibrated_miss_model",
    "measure_miss_model",
    "StackDistanceProfile",
    "stack_distance_profile",
    "FenwickTree",
    "OlkenProfiler",
    "SetDistanceProfile",
    "per_set_profiles",
    "two_level_profiles",
    "amat_two_level",
]
