"""Workload profile store: dense (size, assoc) miss surfaces, served hot.

The per-set Mattson profiler (:mod:`repro.archsim.setdist`) made the
exact LRU cost of a calibration grid independent of how many points the
grid holds — a dense 199-point grid costs 1.17x a 12-point pass
(BENCH_6).  This module exploits that: compute each workload's **whole
(size, associativity) miss-rate surface** once — every L1 shape from
4 KB direct-mapped to 64 KB 16-way and every L2 shape from 128 KB to
8 MB behind the reference L1 — and answer *all* subsequent grids by
slicing, bit-identical to simulating each requested point directly.

Three tiers, mirroring the rest of ``repro.perf``:

* an in-process memory tier with **single-flight** semantics (concurrent
  requests for the same surface elect one computing leader; everyone
  else blocks on an event and shares the result — the
  :mod:`repro.perf.table_cache` pattern), extended **across processes**
  by a per-key fcntl advisory lock around the compute step: N service
  workers warming the same (workload, policy, n, seed) run exactly one
  cascade, the rest wait-and-load from the disk tier;
* a :class:`repro.perf.DiskCache` persistent tier (namespace
  ``profiles``), so a restarted process — or the service daemon after
  a pool worker computed the surface — re-serves without recomputation;
* the compute tier: one trace pass through the calibration route that
  grids take too, :func:`repro.archsim.missmodel._shape_rates`, over
  every dense shape — one ``setdist`` contraction-cascade pass for
  LRU, one :class:`~repro.archsim.multiconfig.MultiConfigHierarchyEngine`
  pass for FIFO/random (per-lane rng streams are independent, so the
  dense pass is bit-identical to any sub-grid pass).

Surfaces are keyed canonically by ``(n_sets, associativity)`` per level:
``n_sets = size / (block * assoc)``, so the same physical cache reached
through different (size, assoc) spellings is stored — and served —
exactly once.

Consumers: :func:`repro.archsim.missmodel.measure_miss_model` slices
surfaces instead of sweeping traces, the service daemon answers warm
``/v1/calibrate`` requests synchronously and warms configured workloads
at startup, and ``/v1/amat`` prices non-reference associativities.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.perf.disk_cache import DiskCache, default_cache_dir, make_fingerprint

#: Bump when surface semantics change; folded into every fingerprint.
PROFILE_STORE_FORMAT = 1

#: Associativities every surface covers (powers of two — the only
#: associativities :class:`repro.cache.config.CacheConfig` accepts).
SURFACE_ASSOCS: Tuple[int, ...] = (1, 2, 4, 8, 16)

#: L1 set counts on the surface: every power of two from 4 KB 16-way
#: (8 sets of 32 B blocks) up to 64 KB direct-mapped (2048 sets).
L1_SURFACE_SET_COUNTS: Tuple[int, ...] = tuple(8 << i for i in range(9))

#: L2 set counts: 128 KB 16-way (128 sets of 64 B blocks) up to 8 MB
#: direct-mapped (131072 sets).
L2_SURFACE_SET_COUNTS: Tuple[int, ...] = tuple(128 << i for i in range(11))

#: Memory-tier capacity (surfaces per store; LRU-evicted beyond this).
MAX_SURFACES = 32

_stats_lock = threading.Lock()
_total_hits = 0
_total_disk_hits = 0
_total_computes = 0


@dataclass(frozen=True)
class ProfileStoreInfo:
    """Process-wide profile-store counters (summed over all stores).

    ``hits`` counts memory-tier serves, ``disk_hits`` disk-tier loads,
    ``misses`` surface computations (one full trace pass each);
    ``inflight`` and ``entries`` sample the current store state.
    """

    hits: int
    disk_hits: int
    misses: int
    inflight: int
    entries: int


class _InFlight:
    """One in-progress surface computation (leader + waiting followers)."""

    __slots__ = ("event", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.error: Optional[BaseException] = None


def _count(kind: str) -> None:
    global _total_hits, _total_disk_hits, _total_computes
    with _stats_lock:
        if kind == "hit":
            _total_hits += 1
        elif kind == "disk":
            _total_disk_hits += 1
        else:
            _total_computes += 1


@dataclass(frozen=True)
class MissSurface:
    """Dense per-level miss-rate surfaces for one (workload, policy).

    ``l1_rates`` / ``l2_rates`` map ``(n_sets, associativity)`` to the
    local miss rate of that shape — the L1 on its own, the L2 behind the
    reference L1 (the calibration convention throughout
    :mod:`repro.archsim.missmodel`).
    """

    workload: str
    policy: str
    n_accesses: int
    seed: int
    l1_block_bytes: int
    l2_block_bytes: int
    l1_rates: Tuple[Tuple[int, int, float], ...]
    l2_rates: Tuple[Tuple[int, int, float], ...]

    def _rates(self, level: str) -> Dict[Tuple[int, int], float]:
        """The level's ``(n_sets, assoc) -> rate`` lookup, built on first
        use and kept on the surface (outside its fields, so equality,
        ``repr`` and the disk payload never see it)."""
        lookups = self.__dict__.get("_lookups")
        if lookups is None:
            lookups = {"l1": _rate_map(self.l1_rates),
                       "l2": _rate_map(self.l2_rates)}
            # Frozen: set it the way ``__init__`` sets the fields.
            object.__setattr__(self, "_lookups", lookups)
        return lookups["l1" if level == "l1" else "l2"]

    def __getstate__(self) -> dict:
        # Pickles carry the fields alone, byte for byte as before the
        # lookups existed; an unpickled surface rebuilds them on use.
        return {name: value for name, value in self.__dict__.items()
                if name != "_lookups"}

    def _block(self, level: str) -> int:
        return self.l1_block_bytes if level == "l1" else self.l2_block_bytes

    def miss_rate(self, level: str, size_bytes: int,
                  associativity: int) -> float:
        """Exact local miss rate of one (level, size, assoc) shape."""
        sets = sets_for(level, size_bytes, associativity,
                        block_bytes=self._block(level))
        rates = self._rates(level)
        try:
            return rates[(sets, associativity)]
        except KeyError:
            raise SimulationError(
                f"({level}, {size_bytes} B, {associativity}-way) is "
                f"outside the profiled surface"
            ) from None

    def l1_miss_rate(self, size_bytes: int, associativity: int) -> float:
        return self.miss_rate("l1", size_bytes, associativity)

    def l2_local_miss_rate(self, size_bytes: int,
                           associativity: int) -> float:
        return self.miss_rate("l2", size_bytes, associativity)


def _rate_map(rates: Tuple[Tuple[int, int, float], ...]
              ) -> Dict[Tuple[int, int], float]:
    return {(sets, assoc): rate for sets, assoc, rate in rates}


def sets_for(level: str, size_bytes: int, associativity: int,
             *, block_bytes: int) -> int:
    """Set count of one shape; raises if the geometry does not divide."""
    span = block_bytes * associativity
    sets = size_bytes // span if span else 0
    if sets < 1 or sets * span != size_bytes:
        raise SimulationError(
            f"{level} size {size_bytes} B does not divide into "
            f"{associativity}-way {block_bytes}-byte sets"
        )
    return sets


def covers_point(level: str, size_bytes: int, associativity: int,
                 *, block_bytes: int) -> bool:
    """True when the dense surface contains this (level, size, assoc)."""
    if associativity not in SURFACE_ASSOCS:
        return False
    try:
        sets = sets_for(level, size_bytes, associativity,
                        block_bytes=block_bytes)
    except SimulationError:
        return False
    counts = (
        L1_SURFACE_SET_COUNTS if level == "l1" else L2_SURFACE_SET_COUNTS
    )
    return sets in counts


def surface_fingerprint(spec, policy: str, n_accesses: int,
                        seed: int) -> str:
    """Fold every input that determines a surface into one key."""
    from repro.archsim import missmodel

    return make_fingerprint(
        "profile-surface",
        PROFILE_STORE_FORMAT,
        spec,
        policy,
        n_accesses,
        seed,
        (missmodel.REFERENCE_L1_BLOCK, missmodel.REFERENCE_L1_ASSOC,
         missmodel.REFERENCE_L1_KB),
        (missmodel.REFERENCE_L2_BLOCK, missmodel.REFERENCE_L2_ASSOC,
         missmodel.REFERENCE_L2_KB),
        L1_SURFACE_SET_COUNTS,
        L2_SURFACE_SET_COUNTS,
        SURFACE_ASSOCS,
    )


def _compute_surface(spec, policy: str, n_accesses: int,
                     seed: int) -> MissSurface:
    """One trace pass -> the whole dense surface for both levels."""
    from repro.archsim import missmodel

    shapes = [
        (level, sets, assoc)
        for level, set_counts in (("l1", L1_SURFACE_SET_COUNTS),
                                  ("l2", L2_SURFACE_SET_COUNTS))
        for sets in set_counts
        for assoc in SURFACE_ASSOCS
    ]
    rates = missmodel._shape_rates(
        shapes, missmodel._calibration_trace(spec, n_accesses, seed), policy
    )
    entries = {"l1": [], "l2": []}
    for (level, sets, assoc), rate in zip(shapes, rates):
        entries[level].append((sets, assoc, rate))
    return MissSurface(
        workload=spec.name,
        policy=policy,
        n_accesses=n_accesses,
        seed=seed,
        l1_block_bytes=missmodel.REFERENCE_L1_BLOCK,
        l2_block_bytes=missmodel.REFERENCE_L2_BLOCK,
        l1_rates=tuple(entries["l1"]),
        l2_rates=tuple(entries["l2"]),
    )


def _surface_payload(surface: MissSurface) -> dict:
    return {
        "workload": surface.workload,
        "policy": surface.policy,
        "n_accesses": surface.n_accesses,
        "seed": surface.seed,
        "l1_block_bytes": surface.l1_block_bytes,
        "l2_block_bytes": surface.l2_block_bytes,
        "l1_rates": [list(entry) for entry in surface.l1_rates],
        "l2_rates": [list(entry) for entry in surface.l2_rates],
    }


def _surface_from_payload(payload: dict) -> MissSurface:
    return MissSurface(
        workload=payload["workload"],
        policy=payload["policy"],
        n_accesses=int(payload["n_accesses"]),
        seed=int(payload["seed"]),
        l1_block_bytes=int(payload["l1_block_bytes"]),
        l2_block_bytes=int(payload["l2_block_bytes"]),
        l1_rates=tuple(
            (int(sets), int(assoc), float(rate))
            for sets, assoc, rate in payload["l1_rates"]
        ),
        l2_rates=tuple(
            (int(sets), int(assoc), float(rate))
            for sets, assoc, rate in payload["l2_rates"]
        ),
    )


class ProfileStore:
    """Single-flight, disk-backed store of dense miss surfaces.

    One instance per cache directory (see :func:`get_store`); every
    tier is safe to hit from many threads at once.
    """

    def __init__(self, directory=None) -> None:
        self.directory = directory
        self._disk = DiskCache("profiles", directory=directory)
        self._lock = threading.Lock()
        self._surfaces: Dict[str, MissSurface] = {}
        self._inflight: Dict[str, _InFlight] = {}

    # -- observability -----------------------------------------------------

    def entries(self) -> int:
        with self._lock:
            return len(self._surfaces)

    def inflight(self) -> int:
        with self._lock:
            return len(self._inflight)

    def warm_workloads(self) -> List[str]:
        """Workload names currently resident in the memory tier."""
        with self._lock:
            return sorted({s.workload for s in self._surfaces.values()})

    def clear(self) -> None:
        """Drop the memory tier (the disk tier is left intact)."""
        with self._lock:
            self._surfaces.clear()

    # -- the store ---------------------------------------------------------

    def peek(self, spec, *, policy: str = "lru",
             n_accesses: int = 300_000, seed: int = 1
             ) -> Optional[MissSurface]:
        """Serve from memory or disk without ever computing.

        Never blocks on an in-flight computation: a concurrent leader's
        eventual result lands in both tiers, so callers that cannot
        afford a trace pass (the service request path) simply miss now
        and hit later.
        """
        return self.surface(
            spec, policy=policy, n_accesses=n_accesses, seed=seed,
            compute=False,
        )

    def surface(self, spec, *, policy: str = "lru",
                n_accesses: int = 300_000, seed: int = 1,
                compute: bool = True) -> Optional[MissSurface]:
        """Return the dense surface, computing it at most once.

        ``compute=False`` turns the call into :meth:`peek`.  Concurrent
        computing callers single-flight: one leader runs the trace pass,
        followers block on its event and share the result (errors
        propagate to everyone, then the next caller retries).
        """
        fingerprint = surface_fingerprint(spec, policy, n_accesses, seed)
        while True:
            with self._lock:
                surface = self._surfaces.get(fingerprint)
                if surface is not None:
                    _count("hit")
                    return surface
                waiter = self._inflight.get(fingerprint)
                if waiter is None:
                    if not compute:
                        break
                    leader = self._inflight[fingerprint] = _InFlight()
                    break
            if not compute:
                # Don't wait on someone else's trace pass; miss now.
                return None
            waiter.event.wait()
            if waiter.error is not None:
                raise waiter.error
            # Result (or eviction) landed; re-check the memory tier.

        try:
            payload = self._disk.load(fingerprint)
            if payload is not None:
                surface = _surface_from_payload(payload)
                _count("disk")
            elif compute:
                # Cross-process single-flight: the in-process leader
                # election above only covers *threads*; N worker
                # processes warming the same surface would still run N
                # identical cascades.  The per-key advisory lock makes
                # exactly one process compute while the rest block here,
                # wake, and load what the winner stored.
                with self._disk.lock(fingerprint):
                    payload = self._disk.load(fingerprint)
                    if payload is not None:
                        surface = _surface_from_payload(payload)
                        _count("disk")
                    else:
                        surface = _compute_surface(
                            spec, policy, n_accesses, seed
                        )
                        _count("compute")
                        self._disk.store(
                            fingerprint, _surface_payload(surface)
                        )
            else:
                return None
        except BaseException as error:
            if compute:
                with self._lock:
                    leader.error = error
                    self._inflight.pop(fingerprint, None)
                leader.event.set()
            raise
        self._install(fingerprint, surface, compute)
        return surface

    def _install(self, fingerprint: str, surface: MissSurface,
                 computing: bool) -> None:
        with self._lock:
            self._surfaces[fingerprint] = surface
            while len(self._surfaces) > MAX_SURFACES:
                self._surfaces.pop(next(iter(self._surfaces)))
            pending = self._inflight.pop(fingerprint, None) if computing \
                else None
        if pending is not None:
            pending.event.set()


_stores_lock = threading.Lock()
_stores: Dict[str, ProfileStore] = {}


def get_store(directory=None) -> ProfileStore:
    """Process-wide store for one cache directory (created on demand)."""
    resolved = str(
        Path(directory) if directory is not None else default_cache_dir()
    )
    with _stores_lock:
        store = _stores.get(resolved)
        if store is None:
            store = _stores[resolved] = ProfileStore(directory)
        return store


def profile_store_info() -> ProfileStoreInfo:
    """Aggregate counters over every store in this process."""
    with _stores_lock:
        stores = list(_stores.values())
    inflight = sum(store.inflight() for store in stores)
    entries = sum(store.entries() for store in stores)
    with _stats_lock:
        return ProfileStoreInfo(
            hits=_total_hits,
            disk_hits=_total_disk_hits,
            misses=_total_computes,
            inflight=inflight,
            entries=entries,
        )


def reset_profile_store_stats() -> None:
    """Zero the process-wide counters (stores keep their contents)."""
    global _total_hits, _total_disk_hits, _total_computes
    with _stats_lock:
        _total_hits = 0
        _total_disk_hits = 0
        _total_computes = 0


def clear_profile_stores() -> None:
    """Drop every store's memory tier (tests; disk tiers untouched)."""
    with _stores_lock:
        stores = list(_stores.values())
    for store in stores:
        store.clear()
