"""Endpoint correctness: responses must equal direct library calls.

The daemon is a transport over the engines, not a reimplementation —
every number it returns is checked against the corresponding direct
call on the same inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import units
from repro.archsim.amat import amat_two_level
from repro.archsim.hierarchy import ArrayTwoLevelHierarchy
from repro.archsim.missmodel import (
    L1_GRID_KB,
    L2_GRID_KB,
    _point_configs,
    calibrated_miss_model,
    measure_miss_model,
)
from repro.archsim.workloads import STANDARD_WORKLOADS, synthetic_trace_buffer
from repro.cache.assignment import COMPONENT_NAMES
from repro.cache.cache_model import CacheModel
from repro.cache.config import CacheConfig, l1_config, l2_config
from repro.energy.dynamic import MainMemoryModel
from repro.optimize.schemes import Scheme
from repro.optimize.single_cache import component_tables, minimize_leakage
from repro.optimize.space import DesignSpace
from repro.optimize.two_level import DEFAULT_L1_KNOBS, DEFAULT_L2_KNOBS

VTHS = (0.25, 0.35, 0.45)
TOXES = (10.5, 12.0, 13.5)


def test_healthz(client):
    payload = client.healthz()
    assert payload["status"] == "ok"
    assert payload["uptime_seconds"] >= 0


def test_sweep_matches_direct_tables(client):
    response = client.sweep(
        {"size_kb": 16}, list(VTHS), list(TOXES)
    )
    assert response["vth"] == list(VTHS)
    assert response["tox_angstrom"] == list(TOXES)
    assert set(response["components"]) == set(COMPONENT_NAMES)

    model = CacheModel(
        CacheConfig(size_bytes=16 * 1024, block_bytes=32, associativity=2,
                    name="direct")
    )
    space = DesignSpace(vth_values=VTHS, tox_values_angstrom=TOXES)
    tables = component_tables(model, space)
    for name in COMPONENT_NAMES:
        served = response["components"][name]
        direct_delay = units.to_ps(
            np.asarray(tables[name].delays).reshape(3, 3)
        )
        direct_leakage = units.to_mw(
            np.asarray(tables[name].leakages).reshape(3, 3)
        )
        direct_energy = units.to_pj(
            np.asarray(tables[name].energies).reshape(3, 3)
        )
        np.testing.assert_allclose(served["delay_ps"], direct_delay,
                                   rtol=1e-12)
        np.testing.assert_allclose(served["leakage_mw"], direct_leakage,
                                   rtol=1e-12)
        np.testing.assert_allclose(served["energy_pj"], direct_energy,
                                   rtol=1e-12)


def test_sweep_component_subset(client):
    response = client.sweep({"size_kb": 16}, [0.3], [12.0],
                            components=["array"])
    assert list(response["components"]) == ["array"]
    assert len(response["components"]["array"]["delay_ps"]) == 1


def test_identical_sweep_is_served_from_the_response_cache(client):
    body = ({"size_kb": 32}, [0.3, 0.35], [14.0])
    first = client.sweep(*body)
    hits_before = client.metrics()["counters"].get(
        "sweep.response_cache_hits", 0
    )
    second = client.sweep(*body)
    hits_after = client.metrics()["counters"].get(
        "sweep.response_cache_hits", 0
    )
    assert second == first
    assert hits_after == hits_before + 1
    # The cached serve still counts as a request (throughput accounting
    # over /metrics deltas reads this counter).
    assert client.metrics()["counters"]["requests.sweep"] >= 2


@pytest.mark.parametrize("scheme_id, scheme", [
    ("1", Scheme.PER_COMPONENT),
    ("2", Scheme.CELL_VS_PERIPHERY),
    ("3", Scheme.UNIFORM),
])
def test_optimize_matches_minimize_leakage(client, scheme_id, scheme):
    response = client.optimize(
        {"size_kb": 16}, scheme_id, 1200.0,
        vth=list(VTHS), tox=list(TOXES),
    )
    model = CacheModel(
        CacheConfig(size_bytes=16 * 1024, block_bytes=32, associativity=2,
                    name="direct")
    )
    space = DesignSpace(vth_values=VTHS, tox_values_angstrom=TOXES)
    direct = minimize_leakage(model, scheme, units.ps(1200.0), space=space)
    assert response["scheme"] == scheme.paper_name
    assert response["leakage_mw"] == pytest.approx(
        units.to_mw(direct.leakage_power), rel=1e-12
    )
    assert response["access_ps"] == pytest.approx(
        units.to_ps(direct.access_time), rel=1e-12
    )
    assert response["slack_ps"] == pytest.approx(
        units.to_ps(direct.slack), rel=1e-9
    )
    served_assignment = response["assignment"]
    for name, point in direct.assignment.components():
        assert served_assignment[name]["vth"] == pytest.approx(point.vth)
        assert served_assignment[name]["tox_angstrom"] == pytest.approx(
            point.tox_angstrom
        )


def test_amat_matches_direct_composition(client):
    response = client.amat(workload="spec2000", l1_size_kb=16,
                           l2_size_kb=1024)
    miss_model = calibrated_miss_model("spec2000")
    l1 = CacheModel(l1_config(16)).uniform(DEFAULT_L1_KNOBS)
    l2 = CacheModel(l2_config(1024)).uniform(DEFAULT_L2_KNOBS)
    memory = MainMemoryModel()
    m1 = miss_model.l1_miss_rate(16 * 1024)
    m2 = miss_model.l2_local_miss_rate(1024 * 1024)
    expected_amat = amat_two_level(
        l1.access_time, m1, l2.access_time, m2, memory.latency
    )
    expected_energy = l1.dynamic_read_energy + m1 * (
        l2.dynamic_read_energy + m2 * memory.energy_per_access
    )
    assert response["amat_ps"] == pytest.approx(
        units.to_ps(expected_amat), rel=1e-12
    )
    assert response["energy_per_access_pj"] == pytest.approx(
        units.to_pj(expected_energy), rel=1e-12
    )
    assert response["l1"]["miss_rate"] == pytest.approx(m1)
    assert response["l2"]["local_miss_rate"] == pytest.approx(m2)
    assert response["total_leakage_mw"] == pytest.approx(
        units.to_mw(l1.leakage_power + l2.leakage_power), rel=1e-12
    )


def test_amat_honours_custom_knobs_and_memory(client):
    base = client.amat(workload="spec2000")
    tweaked = client.amat(
        workload="spec2000",
        l1_knobs={"vth": 0.25, "tox": 11.0},
        memory_latency_ps=50_000,
    )
    assert tweaked["amat_ps"] != pytest.approx(base["amat_ps"])
    assert tweaked["memory_latency_ps"] == pytest.approx(50_000)


def test_amat_blend(client):
    response = client.amat(workload={"spec2000": 1.0, "tpcc": 1.0})
    assert response["workload"] == "blend(spec2000+tpcc)"
    assert response["policy"] == "lru"


def test_amat_policy_swaps_the_miss_curves(client):
    import repro.archsim.missmodel as missmodel

    # The service runs in-process (module-scoped fixture), so shrinking
    # the on-demand policy calibration keeps this endpoint test fast.
    saved = missmodel.POLICY_CALIBRATION_ACCESSES
    missmodel.POLICY_CALIBRATION_ACCESSES = 20_000
    try:
        response = client.amat(workload="spec2000", policy="fifo")
        miss_model = calibrated_miss_model("spec2000", "fifo")
        assert response["policy"] == "fifo"
        assert response["l1"]["miss_rate"] == pytest.approx(
            miss_model.l1_miss_rate(16 * 1024)
        )
        lru = client.amat(workload="spec2000")
        assert response["l1"]["miss_rate"] != lru["l1"]["miss_rate"]
    finally:
        missmodel.POLICY_CALIBRATION_ACCESSES = saved


def test_calibrate_job_carries_policy(client, server):
    job = client.calibrate(workload="spec2000", n_accesses=20_000,
                           policy="fifo", l1_grid_kb=[4, 8],
                           l2_grid_kb=[128])
    done = client.wait_for_job(job["job_id"], timeout=180)
    assert done["status"] == "done"
    assert done["policy"] == "fifo"  # job detail labels the policy
    assert done["result"]["policy"] == "fifo"
    direct = measure_miss_model(
        STANDARD_WORKLOADS["spec2000"], n_accesses=20_000, policy="fifo",
        l1_grid_kb=(4, 8), l2_grid_kb=(128,),
        cache_dir=server.service.config.cache_dir,
    )
    served_l1 = {int(size): rate for size, rate in done["result"]["l1_curve"]}
    for size, rate in direct.l1_curve:
        assert served_l1[int(size)] == pytest.approx(rate)


def test_calibrate_job_matches_direct_measurement(client, server):
    job = client.calibrate(workload="spec2000", n_accesses=50_000, seed=7,
                           l1_grid_kb=[8, 16], l2_grid_kb=[256, 512])
    assert job["status"] == "queued"
    done = client.wait_for_job(job["job_id"], timeout=180)
    assert done["status"] == "done"
    direct = measure_miss_model(
        STANDARD_WORKLOADS["spec2000"], n_accesses=50_000, seed=7,
        l1_grid_kb=(8, 16), l2_grid_kb=(256, 512),
        cache_dir=server.service.config.cache_dir,
    )
    served_l1 = {int(size): rate for size, rate in done["result"]["l1_curve"]}
    for size, rate in direct.l1_curve:
        assert served_l1[int(size)] == pytest.approx(rate)
    served_l2 = {int(size): rate for size, rate in done["result"]["l2_curve"]}
    for size, rate in direct.l2_curve:
        assert served_l2[int(size)] == pytest.approx(rate)


def test_calibrate_setdist_estimator_matches_grid(client, server):
    # LRU calibrations take the per-set Mattson route, which is exact:
    # the served curves must be *identical* to simulating every grid
    # point on its own, not just close.
    job = client.calibrate(workload="tpcc", n_accesses=20_000, seed=3)
    done = client.wait_for_job(job["job_id"], timeout=180)
    assert done["status"] == "done"
    assert "estimator" not in done["result"] and "engine" not in done
    trace = synthetic_trace_buffer(
        STANDARD_WORKLOADS["tpcc"], 20_000, seed=3, block_bytes=64
    )
    for level, kbs in (("l1", L1_GRID_KB), ("l2", L2_GRID_KB)):
        served = {int(size): rate
                  for size, rate in done["result"][f"{level}_curve"]}
        for kb in kbs:
            result = ArrayTwoLevelHierarchy(*_point_configs(level, kb)).run(
                trace
            )
            assert served[kb * 1024] == (
                result.l1_miss_rate if level == "l1"
                else result.l2_local_miss_rate
            )


def test_metrics_shape(client):
    client.healthz()
    payload = client.metrics()
    assert set(payload) == {"counters", "gauges", "histograms",
                            "worker_id"}
    assert payload["counters"]["requests.healthz"] >= 1
    assert "uptime_seconds" in payload["gauges"]
    table_cache = payload["gauges"]["table_cache"]
    assert {"hits", "misses", "entries"} <= set(table_cache)
    assert payload["gauges"]["jobs.queue_depth"] >= 0
    histogram = payload["histograms"]["latency.healthz_seconds"]
    assert histogram["count"] >= 1
    assert histogram["min"] >= 0
