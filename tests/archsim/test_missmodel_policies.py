"""Policy plumbing of the calibration pipeline: dispatch, routing, caching.

Unknown policies raise ``SimulationError`` (never ``KeyError``) from
every entry point; each policy takes exactly one route (LRU the per-set
Mattson pass, FIFO and random the multi-config sweep) and that route is
bit-identical to one ``ArrayTwoLevelHierarchy`` run per grid point;
per-policy disk-cache entries never collide; and an associativity axis
beyond the profiler's depth limit is refused before any trace pass.
"""

import pytest

import repro.archsim.missmodel as missmodel
import repro.archsim.multiconfig as multiconfig_module
import repro.archsim.setdist as setdist_module
import repro.archsim.workloads as workloads_module
from repro.archsim.hierarchy import ArrayTwoLevelHierarchy, simulate_hierarchy
from repro.archsim.missmodel import (
    calibrated_miss_model,
    measure_miss_model,
)
from repro.perf.disk_cache import DiskCache, make_fingerprint
from repro.archsim.workloads import SPEC2000_LIKE, synthetic_trace_buffer
from repro.cache.config import CacheConfig
from repro.errors import SimulationError

L1 = CacheConfig(size_bytes=1024, block_bytes=32, associativity=2, name="L1")
L2 = CacheConfig(size_bytes=8192, block_bytes=64, associativity=4, name="L2")

SMALL_GRID = dict(n_accesses=20_000, l1_grid_kb=(4, 16), l2_grid_kb=(128, 512))


class TestPolicyDispatch:
    def test_simulate_hierarchy_unknown_policy_raises_simulation_error(self):
        trace = synthetic_trace_buffer(SPEC2000_LIKE, 1_000, seed=3)
        with pytest.raises(SimulationError):
            simulate_hierarchy(L1, L2, trace, policy="plru")

    def test_measure_miss_model_unknown_policy_raises_simulation_error(self):
        with pytest.raises(SimulationError):
            measure_miss_model(
                SPEC2000_LIKE, n_accesses=2_000, policy="mru",
                use_disk_cache=False,
            )

    def test_calibrated_miss_model_unknown_policy(self):
        with pytest.raises(SimulationError):
            calibrated_miss_model("spec2000", "plru")

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    def test_multiconfig_matches_array_per_policy(self, policy):
        # The policy's one route (setdist for LRU, multiconfig otherwise)
        # against the per-point oracle on the same trace.
        model = measure_miss_model(
            SPEC2000_LIKE, policy=policy, use_disk_cache=False,
            profile_store="off", **SMALL_GRID,
        )
        trace = synthetic_trace_buffer(
            SPEC2000_LIKE, SMALL_GRID["n_accesses"], seed=1, block_bytes=64
        )
        for level, grid, curve in (
            ("l1", SMALL_GRID["l1_grid_kb"], dict(model.l1_curve)),
            ("l2", SMALL_GRID["l2_grid_kb"], dict(model.l2_curve)),
        ):
            for kb in grid:
                l1_config, l2_config = missmodel._point_configs(level, kb)
                result = ArrayTwoLevelHierarchy(
                    l1_config, l2_config, policy
                ).run(trace)
                assert curve[kb * 1024] == (
                    result.l1_miss_rate if level == "l1"
                    else result.l2_local_miss_rate
                )

    @pytest.mark.parametrize(
        "policy, forbidden",
        [
            ("lru", (multiconfig_module.MultiConfigHierarchyEngine, "run")),
            ("fifo", (setdist_module, "two_level_profiles")),
            ("random", (setdist_module, "two_level_profiles")),
        ],
    )
    def test_each_policy_takes_one_route(self, monkeypatch, policy,
                                         forbidden):
        def explode(*args, **kwargs):
            raise AssertionError(f"{policy} reached {forbidden[1]}")

        monkeypatch.setattr(*forbidden, explode)
        model = measure_miss_model(
            SPEC2000_LIKE, policy=policy, use_disk_cache=False,
            profile_store="off", **SMALL_GRID,
        )
        assert model.l1_curve and model.l2_curve

    @pytest.mark.parametrize("level", ["l1", "l2"])
    def test_assoc_beyond_profiler_depth_is_refused_before_tracing(
        self, monkeypatch, level
    ):
        def explode(*args, **kwargs):
            raise AssertionError("a trace was generated")

        monkeypatch.setattr(missmodel, "synthetic_trace_buffer", explode)
        monkeypatch.setattr(
            workloads_module, "synthetic_trace_buffer", explode
        )
        for policy in ("lru", "fifo", "random"):
            with pytest.raises(SimulationError, match="127"):
                measure_miss_model(
                    SPEC2000_LIKE, policy=policy, use_disk_cache=False,
                    profile_store="off", **{f"{level}_assocs": (128,)},
                    **SMALL_GRID,
                )

    def test_policies_measure_distinct_curves(self):
        models = {
            policy: measure_miss_model(
                SPEC2000_LIKE, policy=policy, use_disk_cache=False,
                **SMALL_GRID,
            )
            for policy in ("lru", "fifo", "random")
        }
        assert models["lru"] != models["fifo"]
        assert models["lru"] != models["random"]


class TestPolicyCaching:
    def test_format_8_entries_are_never_served(self, tmp_path):
        # Plant a poisoned entry under the format-8 fingerprint (engine
        # and estimator tags included) for exactly this request: a
        # format-9 lookup must miss it and measure afresh.
        grids = (SMALL_GRID["l1_grid_kb"], SMALL_GRID["l2_grid_kb"])
        stale = make_fingerprint(
            8, SPEC2000_LIKE, SMALL_GRID["n_accesses"], 1, *grids,
            (missmodel.REFERENCE_L1_BLOCK, missmodel.REFERENCE_L1_ASSOC,
             missmodel.REFERENCE_L1_KB),
            (missmodel.REFERENCE_L2_BLOCK, missmodel.REFERENCE_L2_ASSOC,
             missmodel.REFERENCE_L2_KB),
            "multiconfig", "grid", "lru",
            (missmodel.REFERENCE_L1_ASSOC,), (missmodel.REFERENCE_L2_ASSOC,),
        )
        poisoned = {
            "workload": "stale",
            "l1_curve": [[kb * 1024, 0.5] for kb in grids[0]],
            "l2_curve": [[kb * 1024, 0.5] for kb in grids[1]],
        }
        DiskCache("missmodel", directory=tmp_path).store(stale, poisoned)
        model = measure_miss_model(
            SPEC2000_LIKE, cache_dir=tmp_path, profile_store="off",
            **SMALL_GRID,
        )
        assert model.workload == "spec2000"
        assert model == measure_miss_model(
            SPEC2000_LIKE, use_disk_cache=False, profile_store="off",
            **SMALL_GRID,
        )

    def test_disk_cache_keys_policies_apart(self, tmp_path):
        kwargs = dict(SMALL_GRID, cache_dir=tmp_path)
        first = measure_miss_model(SPEC2000_LIKE, policy="fifo", **kwargs)
        # A warm read must return the fifo curves, not another policy's.
        assert measure_miss_model(SPEC2000_LIKE, policy="fifo",
                                  **kwargs) == first
        lru = measure_miss_model(SPEC2000_LIKE, policy="lru", **kwargs)
        assert lru != first

    def test_calibrated_miss_model_memoises_per_policy(self, monkeypatch):
        monkeypatch.setattr(missmodel, "POLICY_CALIBRATION_ACCESSES", 10_000)
        monkeypatch.setattr(missmodel, "_POLICY_TABLES", {})
        first = calibrated_miss_model("spec2000", "random")
        assert calibrated_miss_model("spec2000", "random") is first
        assert first != calibrated_miss_model("spec2000")
        assert calibrated_miss_model("spec2000", "lru") is \
            calibrated_miss_model("spec2000")
