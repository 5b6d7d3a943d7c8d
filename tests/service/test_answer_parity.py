"""One answer per request kind: endpoints and campaign units agree.

``POST /v1/sweep`` and a campaign's sweep units, ``POST /v1/optimize``
and its optimize units, ``POST /v1/amat`` and its amat units all answer
through :mod:`repro.answers`.  These tests feed both paths the same
inputs and compare the answers as JSON text, not approximately.  The
only differences allowed are the ones each caller always had: a
campaign optimize result carries ``feasible`` and echoes its target as
the spec gave it, while the endpoint echoes the target it parsed.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro import answers as answers_module
from repro import units
from repro.answers import MAX_MODELS, price_amat, shared_model
from repro.archsim.missmodel import calibrated_miss_model
from repro.cache.cache_model import CacheModel
from repro.cache.config import CacheConfig, l1_config, l2_config
from repro.campaign.runner import CampaignManager
from repro.energy.dynamic import MainMemoryModel
from repro.optimize.two_level import default_l1_knobs, default_l2_knobs
from repro.service import ServiceConfig, schemas
from repro.service.server import ReproService
from repro.technology.nodes import NODES, node_technology
from tests.campaign.test_runner import InlineJobs

CACHE = {"size_kb": 16, "associativity": 2, "name": "L1-parity"}
VTHS = [0.25, 0.3, 0.35]
TOXES = [11.0, 12.0, 12.5]

#: ``to_ps(ps(1200.0)) == 1200.0`` but ``to_ps(ps(1000.1))`` is one ulp
#: off: the second target shows each caller keeping its own echo.
TARGETS = [1200.0, 1000.1, 5.0]

SWEEPS = [
    {"cache": CACHE, "vth": VTHS, "tox": TOXES},
    {"cache": CACHE, "vth": [0.3, 0.4], "tox": [12.0],
     "components": ["array", "decoder"]},
]

CAMPAIGN = {
    "name": "parity",
    "nodes": [65, 45],
    "sweeps": SWEEPS,
    "optimize": {"caches": [CACHE], "schemes": ["1", "3"],
                 "target_ps": TARGETS, "vth": VTHS, "tox": TOXES},
}


def _text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


@pytest.fixture(scope="module")
def answers(tmp_path_factory):
    """(service, campaign results by kind) for :data:`CAMPAIGN`."""
    root = str(tmp_path_factory.mktemp("parity"))
    service = ReproService(ServiceConfig(port=0, cache_dir=root))
    campaigns = CampaignManager(
        jobs=InlineJobs(), cache_dir=root, poll_interval=0.005
    )
    spec = schemas.parse_campaign(CAMPAIGN)
    campaign_id = campaigns.submit(spec)["campaign_id"]
    final = campaigns.wait(campaign_id, 60.0)
    assert final["status"] == "done"
    yield service, final["results"]
    campaigns.shutdown()
    service.shutdown()


class TestSweepParity:
    def test_every_sweep_unit_equals_the_endpoint(self, answers):
        service, results = answers
        assert len(results["sweep"]) == len(SWEEPS) * 2
        for unit in results["sweep"]:
            index = next(
                i for i, body in enumerate(SWEEPS)
                if body["vth"] == unit["vth"] and body["tox"] ==
                unit["tox_angstrom"]
            )
            body = {**SWEEPS[index], "node": unit["node"]}
            status, served = service.handle("POST", "/v1/sweep", body)
            assert status == 200
            result = {k: v for k, v in unit.items() if k != "unit_id"}
            assert _text(result) == _text(served)


class TestOptimizeParity:
    def test_every_optimize_unit_equals_the_endpoint(self, answers):
        service, results = answers
        assert len(results["optimize"]) == 2 * len(TARGETS) * 2
        seen = set()
        for unit in results["optimize"]:
            code = "1" if unit["scheme"] == "Scheme I" else "3"
            body = {"cache": CACHE, "scheme": code,
                    "target_ps": unit["target_ps"], "vth": VTHS,
                    "tox": TOXES, "node": unit["node"]}
            status, served = service.handle("POST", "/v1/optimize", body)
            assert unit["target_ps"] in TARGETS
            if not unit["feasible"]:
                seen.add("infeasible")
                assert status == 422
                assert unit["best_achievable_ps"] == \
                    served["error"]["best_achievable_ps"]
                continue
            assert status == 200
            # The campaign echoes the spec's target; the endpoint the
            # target it parsed into seconds and back.
            echo = units.to_ps(units.ps(unit["target_ps"]))
            assert served["target_ps"] == echo
            seen.add("feasible" if echo == unit["target_ps"]
                     else "feasible, echoes differ")
            result = {
                k: v for k, v in unit.items()
                if k not in ("unit_id", "feasible", "target_ps")
            }
            served.pop("target_ps")
            assert _text(result) == _text(served)
        assert seen == {
            "feasible", "feasible, echoes differ", "infeasible"
        }

    def test_the_scheme_name_matches_the_codes(self, answers):
        _, results = answers
        assert {unit["scheme"] for unit in results["optimize"]} == \
            {"Scheme I", "Scheme III"}


#: The serve workload's AMAT shapes: L1 8/16/32 KB x 2/4-way, L2
#: 512/1024/2048 KB x 8/16-way (paired, not crossed).
AMAT_SHAPES = [
    (l1_kb, l1_assoc, l2_kb, l2_assoc)
    for (l1_kb, l2_kb) in ((8, 512), (16, 1024), (32, 2048))
    for l1_assoc in (2, 4)
    for l2_assoc in (8, 16)
]


class TestAmatParity:
    @pytest.mark.parametrize("node", [65, 32])
    def test_kept_models_price_like_fresh_ones(self, node):
        technology = node_technology(node, "itrs")
        l1_knobs = default_l1_knobs(technology)
        l2_knobs = default_l2_knobs(technology)
        miss = calibrated_miss_model("spec2000")
        memory = MainMemoryModel()
        for l1_kb, l1_assoc, l2_kb, l2_assoc in AMAT_SHAPES:
            l1 = l1_config(l1_kb, associativity=l1_assoc)
            l2 = l2_config(l2_kb, associativity=l2_assoc)
            identity = dict(
                workload="spec2000", policy="lru", node=node,
                scaling_style="itrs", l1_size_kb=l1_kb, l2_size_kb=l2_kb,
            )
            fresh = price_amat(
                CacheModel(l1, technology=technology), l1_knobs,
                CacheModel(l2, technology=technology), l2_knobs,
                miss, memory, **identity,
            )
            for _ in range(2):
                kept = price_amat(
                    shared_model(l1, node, "itrs"), l1_knobs,
                    shared_model(l2, node, "itrs"), l2_knobs,
                    miss, memory, **identity,
                )
                assert _text(kept) == _text(fresh)

    def test_identical_requests_return_identical_bytes(self, answers):
        service, _ = answers
        body = {"workload": "spec2000", "l1_size_kb": 32, "l1_assoc": 2,
                "l2_size_kb": 2048, "l2_assoc": 8, "node": 45}
        first = service.handle("POST", "/v1/amat", body)
        second = service.handle("POST", "/v1/amat", dict(body))
        assert first[0] == second[0] == 200
        assert json.dumps(first[1]).encode() == \
            json.dumps(second[1]).encode()


class TestModelMap:
    def test_keyed_by_structure_and_technology_not_name(self):
        named = l1_config(16, associativity=2)
        renamed = CacheConfig(
            size_bytes=named.size_bytes, block_bytes=named.block_bytes,
            associativity=named.associativity,
            output_bits=named.output_bits, name="another label",
        )
        model = shared_model(named, 65, "itrs")
        assert shared_model(renamed, 65, "itrs") is model
        assert shared_model(named, 45, "itrs") is not model
        assert shared_model(named, 65, "cons") is not model

    def test_least_recently_used_model_is_evicted(self):
        first = l1_config(1, associativity=1)
        kept = shared_model(first, 65, "itrs")
        fillers = [(kb, node) for kb in (1, 2, 4, 8, 16) for node in NODES]
        assert len(fillers) > MAX_MODELS
        for kb, node in fillers:
            shared_model(l1_config(kb, associativity=2), node, "itrs")
        assert len(answers_module._models) <= MAX_MODELS
        assert shared_model(first, 65, "itrs") is not kept

    def test_concurrent_callers_share_one_model_per_key(self):
        """More threads than cores race on four keys with a short switch
        interval: every caller of one key gets the same object."""
        configs = [l1_config(kb, associativity=4) for kb in (2, 4)]
        keys = [(config, node) for config in configs for node in (45, 65)]
        seen = {index: set() for index in range(len(keys))}
        start = threading.Barrier(8)

        def call():
            start.wait(timeout=10.0)
            for index, (config, node) in enumerate(keys * 3):
                seen[index % len(keys)].add(
                    id(shared_model(config, node, "itrs"))
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=call) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(len(ids) == 1 for ids in seen.values())
