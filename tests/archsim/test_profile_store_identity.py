"""Store-served slices must match direct simulation *bit-identically*.

``measure_miss_model(profile_store="always")`` answers a requested
(sizes x assocs) grid by slicing one dense precomputed surface.  Nothing
about that sharing may show up in the numbers: across random sub-grids,
associativity axes and replacement policies, every rate must equal the
one a direct trace pass over exactly the requested grid produces
(``profile_store="off"``: the per-set Mattson cascade for LRU, the
multiconfig sweep for FIFO/random).  For FIFO/random this pins down the
per-lane RNG independence the union pass relies on: adding lanes to the
superset grid must not perturb any individual lane's stream.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.archsim.missmodel import (
    L1_GRID_KB,
    L2_GRID_KB,
    measure_miss_model,
)
from repro.archsim.workloads import SPEC2000_LIKE
from repro.perf.profile_store import SURFACE_ASSOCS, clear_profile_stores

#: Short traces: identity is exact at any length, so cheap passes do.
N_ACCESSES = 20_000

l1_grids = st.lists(
    st.sampled_from(L1_GRID_KB), min_size=1, max_size=3, unique=True
).map(lambda kbs: tuple(sorted(kbs)))
l2_grids = st.lists(
    st.sampled_from(L2_GRID_KB), min_size=1, max_size=3, unique=True
).map(lambda kbs: tuple(sorted(kbs)))
assoc_axes = st.one_of(
    st.none(),
    st.lists(
        st.sampled_from(SURFACE_ASSOCS), min_size=1, max_size=3,
        unique=True,
    ).map(lambda assocs: tuple(sorted(assocs))),
)


def _curves(model):
    return (
        model.l1_curve,
        model.l2_curve,
        model.l1_assoc_curves,
        model.l2_assoc_curves,
    )


@pytest.fixture(autouse=True)
def fresh_memory_tier():
    clear_profile_stores()
    yield
    clear_profile_stores()


class TestStoreSliceIdentity:
    @settings(max_examples=12, deadline=None)
    @given(
        l1_grid=l1_grids,
        l2_grid=l2_grids,
        l1_assocs=assoc_axes,
        l2_assocs=assoc_axes,
        policy=st.sampled_from(["lru", "fifo", "random"]),
    )
    def test_store_matches_direct_simulation(
        self, tmp_path_factory, l1_grid, l2_grid, l1_assocs, l2_assocs,
        policy,
    ):
        cache_dir = str(tmp_path_factory.mktemp("profiles"))
        kwargs = dict(
            n_accesses=N_ACCESSES,
            seed=1,
            l1_grid_kb=l1_grid,
            l2_grid_kb=l2_grid,
            l1_assocs=l1_assocs,
            l2_assocs=l2_assocs,
            policy=policy,
            use_disk_cache=False,
        )
        served = measure_miss_model(
            SPEC2000_LIKE, cache_dir=cache_dir,
            profile_store="always", **kwargs
        )
        direct = measure_miss_model(
            SPEC2000_LIKE, profile_store="off", **kwargs
        )
        assert _curves(served) == _curves(direct)

    def test_warm_slice_runs_zero_trace_passes(self, tmp_path,
                                               monkeypatch):
        """Once the surface is resident, a different sub-grid is a pure
        slice: patching every engine entry point to explode proves no
        trace is generated or swept."""
        cache_dir = str(tmp_path)
        measure_miss_model(
            SPEC2000_LIKE, n_accesses=N_ACCESSES, use_disk_cache=False,
            cache_dir=cache_dir, profile_store="always",
        )

        import repro.archsim.multiconfig as multiconfig_module
        import repro.archsim.setdist as setdist_module
        import repro.archsim.workloads as workloads_module

        def forbidden(*args, **kwargs):
            raise AssertionError("warm slice touched a trace engine")

        monkeypatch.setattr(
            workloads_module, "synthetic_trace_buffer", forbidden
        )
        monkeypatch.setattr(
            setdist_module, "two_level_profiles", forbidden
        )
        monkeypatch.setattr(
            multiconfig_module.MultiConfigHierarchyEngine, "run",
            forbidden,
        )
        sliced = measure_miss_model(
            SPEC2000_LIKE, n_accesses=N_ACCESSES, use_disk_cache=False,
            cache_dir=cache_dir, profile_store="auto",
            l1_grid_kb=(8, 32), l2_grid_kb=(256, 1024),
            l1_assocs=(1, 4), l2_assocs=(16,),
        )
        assert sliced.l1_assoc_curves and sliced.l2_assoc_curves
