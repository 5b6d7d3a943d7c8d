"""Calibrated miss-rate model."""

import pytest

from repro.archsim.missmodel import (
    CALIBRATED_TABLES,
    MissRateModel,
    calibrated_miss_model,
    measure_miss_model,
)
from repro.archsim.workloads import SPEC2000_LIKE
from repro.errors import SimulationError


class TestInterpolation:
    @pytest.fixture(scope="class")
    def model(self):
        return MissRateModel(
            workload="test",
            l1_curve=((4096, 0.08), (16384, 0.06), (65536, 0.05)),
            l2_curve=((131072, 0.6), (1048576, 0.4), (4194304, 0.3)),
        )

    def test_exact_at_grid_points(self, model):
        assert model.l1_miss_rate(16384) == pytest.approx(0.06)
        assert model.l2_local_miss_rate(1048576) == pytest.approx(0.4)

    def test_interpolates_in_log_size(self, model):
        # 8192 is the log2 midpoint of 4096 and 16384.
        assert model.l1_miss_rate(8192) == pytest.approx(0.07)

    def test_clamps_below_grid(self, model):
        assert model.l1_miss_rate(1024) == pytest.approx(0.08)

    def test_clamps_above_grid(self, model):
        assert model.l2_local_miss_rate(1 << 30) == pytest.approx(0.3)

    def test_rejects_nonpositive_size(self, model):
        with pytest.raises(SimulationError):
            model.l1_miss_rate(0)


class TestCalibratedTables:
    @pytest.mark.parametrize("workload", ["spec2000", "specweb", "tpcc"])
    def test_tables_exist(self, workload):
        assert workload in CALIBRATED_TABLES

    @pytest.mark.parametrize("workload", ["spec2000", "specweb", "tpcc"])
    def test_l1_curves_low_and_flat(self, workload):
        """The paper's premise: local L1 miss rates are low and barely
        vary from 4 K to 64 K."""
        model = calibrated_miss_model(workload)
        rates = [model.l1_miss_rate(kb * 1024) for kb in (4, 8, 16, 32, 64)]
        assert all(rate < 0.15 for rate in rates)
        assert max(rates) - min(rates) < 0.02
        assert rates == sorted(rates, reverse=True)  # weakly decreasing

    @pytest.mark.parametrize("workload", ["spec2000", "specweb", "tpcc"])
    def test_l2_curves_decrease_with_size(self, workload):
        model = calibrated_miss_model(workload)
        sizes = [kb * 1024 for kb in (128, 256, 512, 1024, 2048, 4096)]
        rates = [model.l2_local_miss_rate(size) for size in sizes]
        assert rates == sorted(rates, reverse=True)
        # Meaningful total drop: L2 size matters.
        assert rates[0] - rates[-1] > 0.05

    def test_tpcc_most_memory_bound(self):
        """Ordering across suites at 1 MB."""
        size = 1024 * 1024
        tpcc = calibrated_miss_model("tpcc").l2_local_miss_rate(size)
        spec = calibrated_miss_model("spec2000").l2_local_miss_rate(size)
        web = calibrated_miss_model("specweb").l2_local_miss_rate(size)
        assert tpcc > web > spec

    def test_unknown_workload(self):
        with pytest.raises(SimulationError):
            calibrated_miss_model("dhrystone")


class TestTableFreshness:
    def test_table_tracks_simulator(self):
        """The baked table must stay close to a live (shorter) run so it
        cannot silently drift from the simulator."""
        fresh = measure_miss_model(
            SPEC2000_LIKE,
            n_accesses=60_000,
            l1_grid_kb=(16,),
            l2_grid_kb=(1024,),
        )
        table = calibrated_miss_model("spec2000")
        fresh_l1 = dict(fresh.l1_curve)[16 * 1024]
        table_l1 = table.l1_miss_rate(16 * 1024)
        assert fresh_l1 == pytest.approx(table_l1, abs=0.02)
        fresh_l2 = dict(fresh.l2_curve)[1024 * 1024]
        table_l2 = table.l2_local_miss_rate(1024 * 1024)
        # Short traces under-warm the L2; allow a generous band.
        assert fresh_l2 == pytest.approx(table_l2, abs=0.25)


class TestBlendedModel:
    def test_equal_blend_between_extremes(self):
        from repro.archsim.missmodel import blended_miss_model

        blend = blended_miss_model()
        size = 1024 * 1024
        rates = [
            calibrated_miss_model(name).l2_local_miss_rate(size)
            for name in ("spec2000", "specweb", "tpcc")
        ]
        assert min(rates) < blend.l2_local_miss_rate(size) < max(rates)

    def test_weights_normalised(self):
        from repro.archsim.missmodel import blended_miss_model

        a = blended_miss_model({"spec2000": 1.0, "tpcc": 1.0})
        b = blended_miss_model({"spec2000": 2.0, "tpcc": 2.0})
        size = 512 * 1024
        assert a.l2_local_miss_rate(size) == pytest.approx(
            b.l2_local_miss_rate(size)
        )

    def test_single_workload_blend_is_identity(self):
        from repro.archsim.missmodel import blended_miss_model

        blend = blended_miss_model({"spec2000": 1.0})
        base = calibrated_miss_model("spec2000")
        for kb in (4, 16, 64):
            assert blend.l1_miss_rate(kb * 1024) == pytest.approx(
                base.l1_miss_rate(kb * 1024)
            )

    def test_blend_name_records_components(self):
        from repro.archsim.missmodel import blended_miss_model

        blend = blended_miss_model({"spec2000": 1.0, "tpcc": 3.0})
        assert "spec2000" in blend.workload and "tpcc" in blend.workload

    def test_rejects_empty_weights(self):
        from repro.archsim.missmodel import blended_miss_model

        with pytest.raises(SimulationError):
            blended_miss_model({})

    def test_rejects_zero_total(self):
        from repro.archsim.missmodel import blended_miss_model

        with pytest.raises(SimulationError):
            blended_miss_model({"spec2000": 0.0})

    @pytest.mark.parametrize("weights", [
        {"spec2000": 1e308, "tpcc": 1e308},   # the total overflows to inf
        {"spec2000": -1.0, "tpcc": 2.0},      # a negative weight
        {"spec2000": float("nan")},
        {"spec2000": float("inf")},
        {"quake3": 1.0},                      # not a standard workload
    ])
    def test_rejects_bad_weights(self, weights):
        from repro.archsim.missmodel import blended_miss_model

        with pytest.raises(SimulationError):
            blended_miss_model(weights)


class TestWorkloadLookup:
    def test_unknown_workload_raises_from_every_entry_point(self):
        from repro.archsim.missmodel import calibrated_miss_surface
        from repro.archsim.workloads import standard_workload

        for lookup in (standard_workload, calibrated_miss_surface,
                       calibrated_miss_model):
            with pytest.raises(SimulationError, match="unknown workload"):
                lookup("quake3")
        with pytest.raises(SimulationError, match="unknown workload"):
            calibrated_miss_model("quake3", policy="fifo")

