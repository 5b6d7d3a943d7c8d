"""Planner tests: expansion, canonical fingerprints, dedup, grouping."""

from __future__ import annotations

import pytest

from repro.archsim.workloads import STANDARD_WORKLOADS
from repro.cache.config import l1_config
from repro.campaign.planner import build_plan
from repro.campaign.spec import (
    AmatBlock,
    CampaignCalibration,
    CampaignConstraints,
    CampaignSpec,
    MatrixBlock,
    OptimizeBlock,
    SweepBlock,
)
from repro.cache.assignment import knobs
from repro.perf.disk_cache import DiskCache
from repro.perf.profile_store import get_store

CALIBRATION = CampaignCalibration(n_accesses=5_000, seed=1)

MATRIX = MatrixBlock(
    l1_sizes_kb=(4, 8), l1_assocs=(1, 2),
    l2_sizes_kb=(128,), l2_assocs=(8,),
)

AMAT = AmatBlock(
    l1_sizes_kb=(8,), l1_assocs=(2,),
    l2_sizes_kb=(1024,), l2_assocs=(8,),
    l1_knobs=knobs(0.3, 12.0), l2_knobs=knobs(0.35, 14.0),
)


def spec(name="plan-test", workloads=("spec2000",), policies=("lru",),
         **blocks) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        workloads=tuple(STANDARD_WORKLOADS[w] for w in workloads),
        policies=tuple(policies),
        calibration=CALIBRATION,
        **blocks,
    )


def sweep(size_kb=16, vths=(0.25, 0.3), toxes=(12.0,),
          components=("array",)) -> SweepBlock:
    return SweepBlock(
        config=l1_config(size_kb),
        vths=tuple(vths),
        toxes_angstrom=tuple(toxes),
        components=tuple(components),
    )


class TestExpansion:
    def test_matrix_expansion_counts_and_order(self, tmp_path):
        plan = build_plan(
            spec(matrix=MATRIX, policies=("lru", "fifo")),
            cache_dir=str(tmp_path),
        )
        kinds = [unit.kind for unit in plan.units]
        # 2 profiles (one per policy), then 2 x (4 L1 + 1 L2) points.
        assert kinds.count("profile") == 2
        assert kinds.count("point") == 10
        assert plan.total_units == 12
        # Profiles come first; every point depends on its profile.
        assert kinds[:2] == ["profile", "profile"]
        for unit in plan.units:
            if unit.kind == "point":
                assert len(unit.after) == 1
                assert plan.by_id[unit.after[0]].kind == "profile"

    def test_unit_ids_are_deterministic(self, tmp_path):
        first = build_plan(spec(matrix=MATRIX), cache_dir=str(tmp_path))
        second = build_plan(spec(matrix=MATRIX), cache_dir=str(tmp_path))
        assert [u.unit_id for u in first.units] == \
            [u.unit_id for u in second.units]
        assert [u.fingerprint for u in first.units] == \
            [u.fingerprint for u in second.units]

    def test_sweep_only_campaign_needs_no_profiles(self, tmp_path):
        plan = build_plan(spec(sweeps=(sweep(),)), cache_dir=str(tmp_path))
        assert [unit.kind for unit in plan.units] == ["sweep"]
        assert plan.units[0].after == ()

    def test_optimize_expansion(self, tmp_path):
        block = OptimizeBlock(
            configs=(l1_config(16), l1_config(32)),
            schemes=("1", "3"),
            targets_ps=(900.0, 1200.0),
        )
        plan = build_plan(spec(optimize=block), cache_dir=str(tmp_path))
        assert sum(1 for u in plan.units if u.kind == "optimize") == 8
        assert all(u.heavy for u in plan.units)


class TestFingerprints:
    def test_campaign_name_does_not_change_fingerprints(self, tmp_path):
        first = build_plan(
            spec(name="alpha", matrix=MATRIX, sweeps=(sweep(),)),
            cache_dir=str(tmp_path),
        )
        second = build_plan(
            spec(name="beta", matrix=MATRIX, sweeps=(sweep(),)),
            cache_dir=str(tmp_path),
        )
        assert [u.fingerprint for u in first.units] == \
            [u.fingerprint for u in second.units]

    def test_cache_name_does_not_change_sweep_fingerprint(self, tmp_path):
        named = l1_config(16)
        renamed = type(named)(
            size_bytes=named.size_bytes, block_bytes=named.block_bytes,
            associativity=named.associativity, output_bits=named.output_bits,
            name="custom-name",
        )
        first = build_plan(
            spec(sweeps=(SweepBlock(named, (0.3,), (12.0,), ("array",)),)),
            cache_dir=str(tmp_path),
        )
        second = build_plan(
            spec(sweeps=(SweepBlock(renamed, (0.3,), (12.0,), ("array",)),)),
            cache_dir=str(tmp_path),
        )
        assert first.units[0].fingerprint == second.units[0].fingerprint

    def test_axes_change_fingerprints(self, tmp_path):
        first = build_plan(spec(sweeps=(sweep(vths=(0.25, 0.3)),)),
                           cache_dir=str(tmp_path))
        second = build_plan(spec(sweeps=(sweep(vths=(0.25, 0.35)),)),
                            cache_dir=str(tmp_path))
        assert first.units[0].fingerprint != second.units[0].fingerprint


class TestDedup:
    def test_identical_sweeps_collapse(self, tmp_path):
        plan = build_plan(
            spec(sweeps=(sweep(), sweep(), sweep())),
            cache_dir=str(tmp_path),
        )
        assert plan.total_units == 1
        assert plan.deduped == 2

    def test_overlapping_optimize_cells_collapse(self, tmp_path):
        block = OptimizeBlock(
            configs=(l1_config(16), l1_config(16)),  # same structure twice
            schemes=("1",),
            targets_ps=(900.0,),
        )
        plan = build_plan(spec(optimize=block), cache_dir=str(tmp_path))
        assert sum(1 for u in plan.units if u.kind == "optimize") == 1
        assert plan.deduped == 1


class TestGrouping:
    def test_same_structure_sweeps_share_a_group(self, tmp_path):
        plan = build_plan(
            spec(sweeps=(
                sweep(vths=(0.25, 0.3)),
                sweep(vths=(0.3, 0.35)),
                sweep(size_kb=32),
            )),
            cache_dir=str(tmp_path),
        )
        groups = {unit.unit_id: unit.group for unit in plan.units}
        assert groups["sweep-1"] == groups["sweep-2"]
        assert groups["sweep-3"] != groups["sweep-1"]
        assert len(plan.groups) == 2
        # Group membership makes a sweep unit heavy (one pool pass).
        assert all(unit.heavy for unit in plan.units)

    def test_union_ceiling_splits_groups(self, tmp_path, monkeypatch):
        import repro.service.batching as batching

        monkeypatch.setattr(batching, "MAX_UNION_POINTS", 4)
        plan = build_plan(
            spec(sweeps=(
                sweep(vths=(0.20, 0.25), toxes=(10.0, 12.0)),
                sweep(vths=(0.30, 0.35), toxes=(10.0, 12.0)),
            )),
            cache_dir=str(tmp_path),
        )
        # The union would be 4 x 2 = 8 > 4 points: two groups.
        assert len(plan.groups) == 2


class TestReuse:
    def test_checkpointed_units_are_born_done(self, tmp_path):
        store = DiskCache("campaigns", directory=str(tmp_path))
        first = build_plan(spec(sweeps=(sweep(),)), cache_dir=str(tmp_path))
        unit = first.units[0]
        assert not first.reused
        store.store(unit.fingerprint, {"cache": "L1-16K", "components": {}})
        second = build_plan(spec(sweeps=(sweep(),)), cache_dir=str(tmp_path))
        assert second.reused == {
            unit.unit_id: {"cache": "L1-16K", "components": {}}
        }
        # Reused sweeps are excluded from grouping: nothing left to run.
        assert not second.groups

    def test_resident_surface_makes_profile_free(self, tmp_path):
        cache_dir = str(tmp_path)
        workload = STANDARD_WORKLOADS["spec2000"]
        cold = build_plan(spec(matrix=MATRIX), cache_dir=cache_dir)
        assert "profile-1" not in cold.reused
        get_store(cache_dir).surface(
            workload, policy="lru",
            n_accesses=CALIBRATION.n_accesses, seed=CALIBRATION.seed,
        )
        warm = build_plan(spec(matrix=MATRIX), cache_dir=cache_dir)
        assert "profile-1" in warm.reused
        assert warm.reused["profile-1"]["workload"] == "spec2000"

    def test_amat_constraints_fold_into_fingerprint(self, tmp_path):
        base = spec(amat=AMAT)
        bounded = spec(
            amat=AMAT,
            constraints=CampaignConstraints(max_amat_ps=2000.0),
        )
        first = build_plan(base, cache_dir=str(tmp_path))
        second = build_plan(bounded, cache_dir=str(tmp_path))
        amat_a = [u for u in first.units if u.kind == "amat"][0]
        amat_b = [u for u in second.units if u.kind == "amat"][0]
        assert amat_a.fingerprint != amat_b.fingerprint
