"""Synthetic workload generators (the SPEC2000 / SPECWEB / TPC-C stand-ins).

The paper gathers miss statistics from SPEC2000, SPECWEB and TPC/C.  Those
traces are proprietary, so each suite is replaced by a seeded synthetic
address generator built from four locality ingredients that together
determine two-level miss behaviour:

* a **hot region** — a small, heavily reused working set (stack, hot
  loops, B-tree roots) accessed with a Zipf-like popularity profile; it
  gives L1 its high hit rate;
* a **streaming component** — word-sequential sweeps (scans, network
  buffers, memcpy): consecutive words of a block hit in L1, and each new
  block misses every level exactly once (no reuse);
* a **warm region** — a multi-megabyte uniformly reused set (heap,
  database pages): far larger than any L1, partially captured by an L2
  in proportion to capacity.  This is the component that makes *L2 size
  matter*;
* a **cold tail** — references scattered over the full footprint with no
  reuse (compulsory misses).

The mix fractions per suite are tuned so the published qualitative
profiles hold (and the test suite locks them in): L1 local miss rates are
low (a few percent) and nearly flat from 4 K to 64 K — the paper's
Section 5 premise, after [7] — while L2 local miss rates fall strongly
from 128 K to a few MB and then flatten.  TPC-C is the most memory-bound
(largest warm set, biggest cold tail), SPEC2000 the least.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, Iterator

import numpy as np

from repro.errors import SimulationError
from repro.archsim.trace import DEFAULT_CHUNK, MemoryAccess, TraceBuffer

#: Granularity of generated addresses (a typical word access).
ACCESS_GRANULARITY = 8

#: Block granularity assumed by the warm/cold components (matches the
#: reference L2 line size; the simulator re-blocks as needed).
REGION_BLOCK = 64


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one synthetic suite.

    Attributes
    ----------
    name:
        Suite label (appears in reports).
    footprint_bytes:
        Total touched memory (cold tail spreads over all of it).
    hot_bytes:
        Size of the hot region (should fit in the smallest L1 studied).
    warm_bytes:
        Size of the warm region (should straddle the L2 sizes studied).
    hot_fraction:
        Probability an access goes to the hot region.
    stream_fraction:
        Probability an access continues the sequential stream.
    cold_fraction:
        Of the remaining (far) accesses, the fraction that goes to the
        cold tail instead of the warm region.
    hot_zipf_alpha:
        Pareto shape of the hot-region popularity profile.
    write_fraction:
        Probability any access is a store.
    """

    name: str
    footprint_bytes: int
    hot_bytes: int
    warm_bytes: int
    hot_fraction: float
    stream_fraction: float
    cold_fraction: float
    hot_zipf_alpha: float = 1.2
    write_fraction: float = 0.3

    def __post_init__(self) -> None:
        if self.hot_bytes + self.warm_bytes > self.footprint_bytes:
            raise SimulationError(
                f"{self.name}: hot + warm regions exceed the footprint"
            )
        if not 0.0 <= self.hot_fraction + self.stream_fraction <= 1.0:
            raise SimulationError(
                f"{self.name}: hot + stream fractions exceed 1"
            )
        for label in ("cold_fraction", "write_fraction"):
            value = getattr(self, label)
            if not 0.0 <= value <= 1.0:
                raise SimulationError(
                    f"{self.name}: {label} must be in [0, 1], got {value}"
                )
        if self.hot_zipf_alpha <= 0:
            raise SimulationError(
                f"{self.name}: hot_zipf_alpha must be positive"
            )

    @property
    def far_fraction(self) -> float:
        """Probability an access is a far (warm or cold) reference."""
        return 1.0 - self.hot_fraction - self.stream_fraction


#: SPEC2000-like: strong loop locality, modest warm set.
SPEC2000_LIKE = WorkloadSpec(
    name="spec2000",
    footprint_bytes=16 * 1024 * 1024,
    hot_bytes=2 * 1024,
    warm_bytes=1536 * 1024,
    hot_fraction=0.90,
    stream_fraction=0.06,
    cold_fraction=0.10,
)

#: SPECWEB-like: more streaming (network buffers, file chunks), bigger
#: warm set, more compulsory traffic.
SPECWEB_LIKE = WorkloadSpec(
    name="specweb",
    footprint_bytes=32 * 1024 * 1024,
    hot_bytes=3 * 1024,
    warm_bytes=3 * 1024 * 1024,
    hot_fraction=0.85,
    stream_fraction=0.10,
    cold_fraction=0.20,
)

#: TPC-C-like: large random page working set, the most memory-bound.
TPCC_LIKE = WorkloadSpec(
    name="tpcc",
    footprint_bytes=64 * 1024 * 1024,
    hot_bytes=3 * 1024,
    warm_bytes=8 * 1024 * 1024,
    hot_fraction=0.87,
    stream_fraction=0.03,
    cold_fraction=0.25,
)

STANDARD_WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec for spec in (SPEC2000_LIKE, SPECWEB_LIKE, TPCC_LIKE)
}


def standard_workload(name: str) -> WorkloadSpec:
    """The standard workload called ``name``, else :class:`SimulationError`."""
    spec = STANDARD_WORKLOADS.get(name)
    if spec is None:
        raise SimulationError(
            f"unknown workload {name!r}; expected one of "
            f"{sorted(STANDARD_WORKLOADS)}"
        )
    return spec


@dataclass(frozen=True)
class _TraceGeometry:
    """Derived address-layout constants shared by both generator paths."""

    hot_words: int
    warm_base: int
    warm_blocks: int
    cold_base: int
    cold_bytes: int
    cold_blocks: int
    words_per_block: int


def _trace_geometry(spec: WorkloadSpec, block_bytes: int) -> _TraceGeometry:
    warm_base = spec.hot_bytes
    cold_base = warm_base + spec.warm_bytes
    cold_bytes = max(spec.footprint_bytes - cold_base, block_bytes)
    return _TraceGeometry(
        hot_words=max(spec.hot_bytes // ACCESS_GRANULARITY, 1),
        warm_base=warm_base,
        warm_blocks=max(spec.warm_bytes // block_bytes, 1),
        cold_base=cold_base,
        cold_bytes=cold_bytes,
        cold_blocks=cold_bytes // block_bytes,
        words_per_block=max(block_bytes // ACCESS_GRANULARITY, 1),
    )


def _trace_seed(spec: WorkloadSpec, seed: int) -> int:
    # zlib.crc32 rather than hash(): str hashing is salted per process and
    # would silently break cross-run reproducibility of the traces.
    return zlib.crc32(spec.name.encode("utf-8")) ^ seed


def synthetic_trace(
    spec: WorkloadSpec,
    n_accesses: int,
    seed: int = 0,
    block_bytes: int = REGION_BLOCK,
) -> Iterator[MemoryAccess]:
    """Yield ``n_accesses`` references following ``spec``.

    Deterministic for a given (spec, seed).  ``block_bytes`` controls the
    granularity of the warm/cold components.

    This is the original per-record generator, kept as the compatibility
    shim (its byte-exact output is pinned by existing seeds and tests).
    Throughput-sensitive callers should use :func:`synthetic_trace_buffer`
    / :func:`synthetic_trace_chunks`, which emit the same *distribution*
    from a vectorized ``numpy.random.Generator`` stream at two orders of
    magnitude higher rate (the two RNGs differ, so the sequences are not
    record-identical).
    """
    if n_accesses < 0:
        raise SimulationError(f"n_accesses must be >= 0, got {n_accesses}")
    rng = random.Random(_trace_seed(spec, seed))

    geometry = _trace_geometry(spec, block_bytes)
    hot_words = geometry.hot_words
    warm_base = geometry.warm_base
    warm_blocks = geometry.warm_blocks
    cold_base = geometry.cold_base
    cold_bytes = geometry.cold_bytes
    cold_blocks = geometry.cold_blocks
    words_per_block = geometry.words_per_block

    # Streaming state: a word-granular cursor sweeping the cold area
    # (streams touch fresh memory; they are not reused).
    stream_word = 0

    for _ in range(n_accesses):
        draw = rng.random()
        if draw < spec.hot_fraction:
            rank = rng.paretovariate(spec.hot_zipf_alpha)
            word = int(rank) % hot_words
            address = word * ACCESS_GRANULARITY
        elif draw < spec.hot_fraction + spec.stream_fraction:
            address = cold_base + (
                (stream_word * ACCESS_GRANULARITY) % cold_bytes
            )
            stream_word += 1
        else:
            if rng.random() < spec.cold_fraction:
                block = rng.randrange(cold_blocks)
                base = cold_base + block * block_bytes
            else:
                block = rng.randrange(warm_blocks)
                base = warm_base + block * block_bytes
            word = rng.randrange(words_per_block)
            address = base + word * ACCESS_GRANULARITY
        is_write = rng.random() < spec.write_fraction
        yield MemoryAccess(address=address, is_write=is_write)


# -- vectorized generators ----------------------------------------------
#
# The four locality ingredients each have an array sampler drawing from a
# shared numpy Generator.  `synthetic_trace_buffer` composes them into a
# whole trace with one boolean-mask pass — no per-access Python work.

def hot_region_addresses(
    rng: np.random.Generator, spec: WorkloadSpec, count: int
) -> np.ndarray:
    """Sample ``count`` hot-region addresses (Zipf-like popularity)."""
    geometry = _trace_geometry(spec, REGION_BLOCK)
    # paretovariate(alpha) = (1/U)**(1/alpha) with U in (0, 1].
    u = 1.0 - rng.random(count)
    rank = np.power(1.0 / u, 1.0 / spec.hot_zipf_alpha)
    # Clamp before the int cast: sub-unity alphas can push rank past
    # int64 range, and the modulo makes the clamp distribution-neutral.
    words = np.minimum(rank, 2.0**62).astype(np.int64) % geometry.hot_words
    return words * ACCESS_GRANULARITY


def stream_addresses(
    spec: WorkloadSpec,
    start_word: int,
    count: int,
    block_bytes: int = REGION_BLOCK,
) -> np.ndarray:
    """Sequential stream addresses for cursor positions ``start_word``.. ."""
    geometry = _trace_geometry(spec, block_bytes)
    words = start_word + np.arange(count, dtype=np.int64)
    return geometry.cold_base + (
        words * ACCESS_GRANULARITY
    ) % geometry.cold_bytes


def warm_region_addresses(
    rng: np.random.Generator,
    spec: WorkloadSpec,
    count: int,
    block_bytes: int = REGION_BLOCK,
) -> np.ndarray:
    """Sample ``count`` uniformly reused warm-region addresses."""
    geometry = _trace_geometry(spec, block_bytes)
    blocks = rng.integers(0, geometry.warm_blocks, count)
    words = rng.integers(0, geometry.words_per_block, count)
    return (
        geometry.warm_base + blocks * block_bytes + words * ACCESS_GRANULARITY
    )


def cold_tail_addresses(
    rng: np.random.Generator,
    spec: WorkloadSpec,
    count: int,
    block_bytes: int = REGION_BLOCK,
) -> np.ndarray:
    """Sample ``count`` no-reuse cold-tail addresses."""
    geometry = _trace_geometry(spec, block_bytes)
    blocks = rng.integers(0, geometry.cold_blocks, count)
    words = rng.integers(0, geometry.words_per_block, count)
    return (
        geometry.cold_base + blocks * block_bytes + words * ACCESS_GRANULARITY
    )


def synthetic_trace_buffer(
    spec: WorkloadSpec,
    n_accesses: int,
    seed: int = 0,
    block_bytes: int = REGION_BLOCK,
) -> TraceBuffer:
    """Generate a whole synthetic trace as one :class:`TraceBuffer`.

    Same mix distribution as :func:`synthetic_trace` (hot / stream /
    warm / cold fractions, Zipf hot profile, write fraction) drawn from a
    seeded ``numpy.random.Generator``, fully vectorized.  Deterministic
    in (spec, n_accesses, seed, block_bytes) and independent of how the
    result is later chunked.  Memory cost is ~9 bytes per access.
    """
    if n_accesses < 0:
        raise SimulationError(f"n_accesses must be >= 0, got {n_accesses}")
    rng = np.random.default_rng(_trace_seed(spec, seed))
    geometry = _trace_geometry(spec, block_bytes)

    draw = rng.random(n_accesses)
    hot_mask = draw < spec.hot_fraction
    stream_mask = (~hot_mask) & (
        draw < spec.hot_fraction + spec.stream_fraction
    )
    far_mask = ~(hot_mask | stream_mask)

    addresses = np.zeros(n_accesses, dtype=np.int64)
    n_hot = int(hot_mask.sum())
    if n_hot:
        addresses[hot_mask] = hot_region_addresses(rng, spec, n_hot)
    n_stream = int(stream_mask.sum())
    if n_stream:
        addresses[stream_mask] = stream_addresses(
            spec, 0, n_stream, block_bytes
        )
    n_far = int(far_mask.sum())
    if n_far:
        cold_sel = rng.random(n_far) < spec.cold_fraction
        far = np.empty(n_far, dtype=np.int64)
        n_cold = int(cold_sel.sum())
        if n_cold:
            far[cold_sel] = cold_tail_addresses(rng, spec, n_cold, block_bytes)
        if n_far - n_cold:
            far[~cold_sel] = warm_region_addresses(
                rng, spec, n_far - n_cold, block_bytes
            )
        addresses[far_mask] = far

    is_write = rng.random(n_accesses) < spec.write_fraction
    return TraceBuffer(addresses, is_write)


def synthetic_trace_chunks(
    spec: WorkloadSpec,
    n_accesses: int,
    seed: int = 0,
    block_bytes: int = REGION_BLOCK,
    chunk_size: int = DEFAULT_CHUNK,
) -> Iterator[TraceBuffer]:
    """Yield the vectorized trace as zero-copy chunks.

    Chunking never changes the access sequence: the trace is generated
    once by :func:`synthetic_trace_buffer` and sliced.
    """
    buffer = synthetic_trace_buffer(spec, n_accesses, seed, block_bytes)
    return buffer.iter_chunks(chunk_size)
