"""The workload profile store: single-flight, disk-backed miss surfaces.

One store instance must run **one** trace pass per (workload, policy,
n_accesses, seed) no matter how many threads ask at once; a store built
over the same directory in a fresh process (here: a fresh instance) must
re-serve from the disk tier without computing at all; ``peek`` must
never compute or block on someone else's computation.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.archsim.setdist as setdist_module
from repro.errors import SimulationError
from repro.perf import profile_store as profile_store_module
from repro.perf.profile_store import (
    L1_SURFACE_SET_COUNTS,
    L2_SURFACE_SET_COUNTS,
    SURFACE_ASSOCS,
    ProfileStore,
    clear_profile_stores,
    covers_point,
    get_store,
    profile_store_info,
    reset_profile_store_stats,
    sets_for,
)
from repro.archsim.workloads import SPEC2000_LIKE, TPCC_LIKE

#: Short traces keep the full dense-surface pass cheap in unit tests.
N_SMALL = 4_000


@pytest.fixture(autouse=True)
def fresh_stats():
    clear_profile_stores()
    reset_profile_store_stats()
    yield
    clear_profile_stores()
    reset_profile_store_stats()


class TestGeometry:
    def test_sets_for_divides(self):
        assert sets_for("l1", 16 * 1024, 2, block_bytes=32) == 256
        assert sets_for("l2", 1024 * 1024, 8, block_bytes=64) == 2048

    def test_sets_for_rejects_non_dividing_geometry(self):
        with pytest.raises(SimulationError):
            sets_for("l1", 48 * 1024 + 1, 2, block_bytes=32)
        with pytest.raises(SimulationError):
            sets_for("l1", 16, 2, block_bytes=32)  # under one set

    def test_covers_every_grid_reference_shape(self):
        from repro.archsim.missmodel import L1_GRID_KB, L2_GRID_KB

        for kb in L1_GRID_KB:
            for assoc in SURFACE_ASSOCS:
                assert covers_point("l1", kb * 1024, assoc, block_bytes=32)
        for kb in L2_GRID_KB:
            for assoc in SURFACE_ASSOCS:
                assert covers_point("l2", kb * 1024, assoc, block_bytes=64)

    def test_rejects_off_surface_points(self):
        # Non-power-of-two associativity.
        assert not covers_point("l1", 16 * 1024, 3, block_bytes=32)
        # Associativity beyond the surface axis.
        assert not covers_point("l1", 16 * 1024, 32, block_bytes=32)
        # Size outside the profiled set-count range.
        assert not covers_point("l1", 256 * 1024, 2, block_bytes=32)
        assert not covers_point("l2", 32 * 1024 * 1024, 1, block_bytes=64)
        # Geometry that does not divide.
        assert not covers_point("l1", 6 * 1024 + 13, 2, block_bytes=32)

    def test_surface_set_counts_are_powers_of_two(self):
        for counts in (L1_SURFACE_SET_COUNTS, L2_SURFACE_SET_COUNTS):
            assert all(count & (count - 1) == 0 for count in counts)
            assert list(counts) == sorted(counts)


class TestSingleFlight:
    def test_concurrent_requests_run_one_pass(self, tmp_path, monkeypatch):
        """N threads asking for the same surface -> exactly one setdist
        cascade; everyone shares the leader's result object."""
        store = ProfileStore(tmp_path)
        calls = []
        real = setdist_module.two_level_profiles

        def counting(*args, **kwargs):
            calls.append(threading.get_ident())
            time.sleep(0.05)  # hold the in-flight window open
            return real(*args, **kwargs)

        monkeypatch.setattr(setdist_module, "two_level_profiles", counting)
        started = threading.Barrier(8)

        def worker():
            started.wait()
            return store.surface(SPEC2000_LIKE, n_accesses=N_SMALL)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = [future.result() for future in
                       [pool.submit(worker) for _ in range(8)]]

        assert len(calls) == 1
        assert all(result is results[0] for result in results)
        info = profile_store_info()
        assert info.misses == 1
        assert info.hits == 7
        assert info.inflight == 0

    def test_leader_error_propagates_and_unblocks(self, tmp_path,
                                                  monkeypatch):
        """A failing leader poisons its followers, then the flight is
        cleared so the next caller can retry."""
        store = ProfileStore(tmp_path)
        boom = RuntimeError("trace pass exploded")
        attempts = []

        def failing(*args, **kwargs):
            attempts.append(1)
            time.sleep(0.02)
            raise boom

        monkeypatch.setattr(setdist_module, "two_level_profiles", failing)
        started = threading.Barrier(4)

        def worker():
            started.wait()
            with pytest.raises(RuntimeError):
                store.surface(SPEC2000_LIKE, n_accesses=N_SMALL)

        with ThreadPoolExecutor(max_workers=4) as pool:
            for future in [pool.submit(worker) for _ in range(4)]:
                future.result()
        assert store.inflight() == 0
        # The store is not poisoned: an un-patched retry succeeds.
        monkeypatch.undo()
        surface = store.surface(SPEC2000_LIKE, n_accesses=N_SMALL)
        assert surface.l1_rates


class TestPeek:
    def test_peek_never_computes(self, tmp_path, monkeypatch):
        store = ProfileStore(tmp_path)

        def forbidden(*args, **kwargs):
            raise AssertionError("peek ran a trace pass")

        monkeypatch.setattr(
            profile_store_module, "_compute_surface", forbidden
        )
        assert store.peek(SPEC2000_LIKE, n_accesses=N_SMALL) is None

    def test_peek_does_not_wait_on_inflight_leader(self, tmp_path,
                                                   monkeypatch):
        store = ProfileStore(tmp_path)
        leader_running = threading.Event()
        release = threading.Event()
        real = setdist_module.two_level_profiles

        def slow(*args, **kwargs):
            leader_running.set()
            release.wait(timeout=10)
            return real(*args, **kwargs)

        monkeypatch.setattr(setdist_module, "two_level_profiles", slow)
        leader = threading.Thread(
            target=store.surface, args=(SPEC2000_LIKE,),
            kwargs={"n_accesses": N_SMALL}, daemon=True,
        )
        leader.start()
        assert leader_running.wait(timeout=10)
        t0 = time.monotonic()
        assert store.peek(SPEC2000_LIKE, n_accesses=N_SMALL) is None
        assert time.monotonic() - t0 < 1.0
        release.set()
        leader.join(timeout=30)
        assert store.peek(SPEC2000_LIKE, n_accesses=N_SMALL) is not None

    def test_peek_serves_after_compute(self, tmp_path):
        store = ProfileStore(tmp_path)
        surface = store.surface(SPEC2000_LIKE, n_accesses=N_SMALL)
        assert store.peek(SPEC2000_LIKE, n_accesses=N_SMALL) is surface


class TestDiskTier:
    def test_fresh_store_reserves_from_disk(self, tmp_path, monkeypatch):
        """Kill/restart: a new store over the same directory serves the
        persisted surface without any recomputation."""
        first = ProfileStore(tmp_path)
        surface = first.surface(SPEC2000_LIKE, n_accesses=N_SMALL)

        def forbidden(*args, **kwargs):
            raise AssertionError("restart recomputed the surface")

        monkeypatch.setattr(
            profile_store_module, "_compute_surface", forbidden
        )
        reborn = ProfileStore(tmp_path)
        again = reborn.surface(SPEC2000_LIKE, n_accesses=N_SMALL)
        assert again.l1_rates == surface.l1_rates
        assert again.l2_rates == surface.l2_rates
        info = profile_store_info()
        assert info.misses == 1
        assert info.disk_hits == 1

    def test_distinct_keys_are_distinct_surfaces(self, tmp_path):
        store = ProfileStore(tmp_path)
        a = store.surface(SPEC2000_LIKE, n_accesses=N_SMALL)
        b = store.surface(SPEC2000_LIKE, n_accesses=N_SMALL, seed=2)
        c = store.surface(TPCC_LIKE, n_accesses=N_SMALL)
        assert a.l1_rates != b.l1_rates or a.l2_rates != b.l2_rates
        assert c.workload == "tpcc"
        assert store.entries() == 3
        assert sorted(store.warm_workloads()) == ["spec2000", "tpcc"]


class TestRegistry:
    def test_get_store_is_per_directory(self, tmp_path):
        a = get_store(tmp_path / "a")
        b = get_store(tmp_path / "b")
        assert a is not b
        assert get_store(tmp_path / "a") is a

    def test_surface_covers_the_whole_dense_grid(self, tmp_path):
        surface = ProfileStore(tmp_path).surface(
            SPEC2000_LIKE, n_accesses=N_SMALL
        )
        assert len(surface.l1_rates) == (
            len(L1_SURFACE_SET_COUNTS) * len(SURFACE_ASSOCS)
        )
        assert len(surface.l2_rates) == (
            len(L2_SURFACE_SET_COUNTS) * len(SURFACE_ASSOCS)
        )
        with pytest.raises(SimulationError):
            surface.l1_miss_rate(256 * 1024, 2)  # off-surface shape


class TestLookup:
    """``miss_rate`` looks shapes up in a per-level mapping that each
    surface builds once, outside its fields."""

    def test_mapping_is_built_once_per_surface(self, tmp_path,
                                               monkeypatch):
        surface = ProfileStore(tmp_path).surface(
            SPEC2000_LIKE, n_accesses=N_SMALL
        )
        built = []
        rate_map = profile_store_module._rate_map

        def counted(rates):
            built.append(rates)
            return rate_map(rates)

        monkeypatch.setattr(profile_store_module, "_rate_map", counted)
        for _ in range(3):
            for kb in (8, 16, 32):
                surface.l1_miss_rate(kb * 1024, 2)
            surface.l2_local_miss_rate(1024 * 1024, 8)
        assert built == [surface.l1_rates, surface.l2_rates]

    def test_served_slices_match_the_fields(self, tmp_path):
        """Every shape reads the rate its field entry holds, from a
        computed surface and from the one a fresh store serves."""
        first = ProfileStore(tmp_path).surface(
            SPEC2000_LIKE, n_accesses=N_SMALL
        )
        served = ProfileStore(tmp_path).surface(
            SPEC2000_LIKE, n_accesses=N_SMALL
        )
        assert served is not first and served == first
        for surface in (first, served):
            for level, rates, block in (("l1", surface.l1_rates, 32),
                                        ("l2", surface.l2_rates, 64)):
                for sets, assoc, rate in rates:
                    size = sets * assoc * block
                    assert surface.miss_rate(level, size, assoc) == rate

    def test_lookups_stay_out_of_equality_and_pickles(self, tmp_path):
        import pickle

        surface = ProfileStore(tmp_path).surface(
            SPEC2000_LIKE, n_accesses=N_SMALL
        )
        before = pickle.dumps(surface)
        untouched = pickle.loads(before)
        surface.l1_miss_rate(16 * 1024, 2)
        assert pickle.dumps(surface) == before
        assert untouched == surface and hash(untouched) == hash(surface)
        assert repr(untouched) == repr(surface)
        assert pickle.loads(before).l1_miss_rate(16 * 1024, 2) == (
            surface.l1_miss_rate(16 * 1024, 2)
        )
