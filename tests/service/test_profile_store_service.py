"""The daemon's profile-store serving tier, end to end over sockets.

The first calibrate carrying an associativity axis runs the engine (a
pooled job, ``served_from: "engine"``); once its dense surface is on the
shared disk tier, any sub-grid repeat is answered synchronously — the
job is born done, labelled ``served_from: "profile_store"``, and its
rates are bit-identical to the engine run.  ``/v1/amat`` prices
non-reference associativities from the same surfaces, the new schema
fields reject malformed axes with structured 400s, and a daemon
configured with ``warm_profiles`` reports its warm state on
``/healthz`` and serves the default calibrate grid without a job queue
wait.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.service import ServiceConfig, ServiceClient, create_server
from repro.service.client import ServiceError

#: Unique trace length so this module's surface is fresh even if other
#: modules already calibrated spec2000 against the shared server.
N_ACCESSES = 19_000


def _wait(client, job_id, timeout=120.0):
    snapshot = client.wait_for_job(job_id, timeout=timeout)
    assert snapshot["status"] == "done", snapshot
    return snapshot


class TestCalibrateServingTier:
    def test_fresh_then_served(self, client):
        first = client.calibrate(
            workload="spec2000", n_accesses=N_ACCESSES,
            l1_grid_kb=[4, 8, 16], l2_grid_kb=[128, 256],
            l1_assocs=[1, 2, 4], l2_assocs=[8, 16],
        )
        assert first["status"] == "queued"
        first_done = _wait(client, first["job_id"])
        assert first_done["served_from"] == "engine"
        result = first_done["result"]
        assert len(result["l1_assoc_curves"]) == 3
        assert len(result["l2_assoc_curves"]) == 2

        before = client.metrics()["counters"]
        second = client.calibrate(
            workload="spec2000", n_accesses=N_ACCESSES,
            l1_grid_kb=[8, 16], l2_grid_kb=[256],
            l1_assocs=[2, 4], l2_assocs=[16],
        )
        # Born done: the submission response already says so.
        assert second["status"] == "done"
        snapshot = client.job(second["job_id"])
        assert snapshot["status"] == "done"
        assert snapshot["served_from"] == "profile_store"
        after = client.metrics()["counters"]
        assert (after["calibrate.profile_store_hits"]
                > before.get("calibrate.profile_store_hits", 0))

        # Served rates are the engine rates, bit-identical.
        cold_l1 = {size: rate for size, rate in result["l1_curve"]}
        warm = snapshot["result"]
        for size, rate in warm["l1_curve"]:
            assert cold_l1[size] == rate
        cold_assoc = {
            assoc: {size: rate for size, rate in curve}
            for assoc, curve in result["l1_assoc_curves"]
        }
        for assoc, curve in warm["l1_assoc_curves"]:
            for size, rate in curve:
                assert cold_assoc[assoc][size] == rate

    def test_any_policy_surface_is_reusable(self, client):
        first = client.calibrate(
            workload="tpcc", n_accesses=N_ACCESSES, policy="fifo",
            l1_grid_kb=[4, 8], l2_grid_kb=[128],
        )
        _wait(client, first["job_id"])
        second = client.calibrate(
            workload="tpcc", n_accesses=N_ACCESSES, policy="fifo",
            l1_grid_kb=[8], l2_grid_kb=[128], l1_assocs=[1, 2],
        )
        assert second["status"] == "done"
        snapshot = client.job(second["job_id"])
        assert snapshot["served_from"] == "profile_store"
        assert snapshot["result"]["policy"] == "fifo"

    def test_metrics_export_store_gauges(self, client):
        metrics = client.metrics()
        gauges = metrics["gauges"]
        assert "profile_store" in gauges
        store = gauges["profile_store"]
        assert set(store) >= {"hits", "disk_hits", "misses", "inflight",
                              "entries"}
        assert "profile_store.warm_workloads" in gauges


class TestAmatAssociativity:
    def test_non_reference_shapes_price_differently(self, client):
        reference = client.amat(workload="spec2000")
        shaped = client.amat(workload="spec2000", l1_assoc=4, l2_assoc=16)
        assert shaped["l1"]["associativity"] == 4
        assert shaped["l2"]["associativity"] == 16
        assert reference["l1"]["associativity"] == 2
        assert shaped["l1"]["miss_rate"] != reference["l1"]["miss_rate"]

    def test_reference_assoc_is_the_default(self, client):
        explicit = client.amat(workload="spec2000", l1_assoc=2, l2_assoc=8)
        implicit = client.amat(workload="spec2000")
        assert explicit["amat_ps"] == implicit["amat_ps"]


class TestSchemaValidation:
    def assert_400(self, client, path, body):
        with pytest.raises(ServiceError) as excinfo:
            client.request("POST", path, body)
        assert excinfo.value.status == 400
        assert "message" in excinfo.value.envelope["error"]

    def test_rejects_non_surface_assoc(self, client):
        self.assert_400(client, "/v1/amat",
                        {"workload": "spec2000", "l1_assoc": 3})
        self.assert_400(client, "/v1/calibrate",
                        {"workload": "spec2000", "l1_assocs": [32]})

    def test_rejects_unsorted_or_duplicate_axes(self, client):
        self.assert_400(client, "/v1/calibrate",
                        {"workload": "spec2000", "l1_assocs": [2, 2]})
        self.assert_400(client, "/v1/calibrate",
                        {"workload": "spec2000", "l2_assocs": [8, 4]})
        self.assert_400(client, "/v1/calibrate",
                        {"workload": "spec2000", "l1_assocs": []})


class TestWarmProfiles:
    def test_unknown_warm_workload_is_rejected(self, tmp_path):
        from repro.errors import ValidationError
        from repro.service.server import ReproService

        with pytest.raises(ValidationError):
            ReproService(ServiceConfig(
                cache_dir=str(tmp_path), warm_profiles=("nope",)
            ))

    def test_warm_daemon_serves_synchronously(self, tmp_path):
        config = ServiceConfig(
            port=0,
            job_workers=1,
            cache_dir=str(tmp_path / "cache"),
            warm_profiles=("spec2000",),
        )
        server = create_server(config)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with ServiceClient(port=server.bound_port,
                               timeout=60.0) as client:
                deadline = time.monotonic() + 120
                while True:
                    health = client.healthz()
                    state = health["profile_store"]
                    if not state["warming"]:
                        break
                    assert time.monotonic() < deadline, state
                    time.sleep(0.1)
                assert state["warm_profiles"] == {"spec2000": "warm"}

                # The /v1/calibrate default grid (300 k accesses, LRU)
                # is exactly what warming precomputed: born done, no
                # engine pass.
                response = client.calibrate(workload="spec2000")
                assert response["status"] == "done"
                snapshot = client.job(response["job_id"])
                assert snapshot["served_from"] == "profile_store"
                assert snapshot["result"]["l1_curve"]
        finally:
            server.shutdown()
            server.service.shutdown()
            server.server_close()
            thread.join(timeout=5)
