"""The malformed-input matrix: every bad request gets a structured 4xx.

The contract under test: no client input — malformed JSON, wrong types,
out-of-range physics, oversized grids — may produce a 500 or take the
daemon down.  Each case asserts the exact status class, the envelope
shape, and afterwards the suite checks the daemon is still healthy and
no 5xx was ever counted.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.service.client import ServiceError
from repro.service.schemas import MAX_CAMPAIGN_UNITS
from repro.technology.nodes import NODES


def _post_raw(server, path: str, raw: bytes):
    """POST arbitrary bytes (bypasses the client's JSON encoding)."""
    connection = http.client.HTTPConnection(
        "127.0.0.1", server.bound_port, timeout=30
    )
    try:
        connection.request(
            "POST", path, body=raw,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _assert_envelope(status: int, payload: dict, expected_status: int):
    assert status == expected_status
    assert "error" in payload
    detail = payload["error"]
    assert detail["status"] == expected_status
    assert isinstance(detail["type"], str) and detail["type"]
    assert isinstance(detail["message"], str) and detail["message"]


GOOD_SWEEP = {
    "cache": {"size_kb": 16},
    "vth": [0.3, 0.4],
    "tox": [11.0, 12.0],
}


class TestMalformedTransport:
    def test_unparseable_json(self, server):
        status, payload = _post_raw(server, "/v1/sweep", b"{nope nope")
        _assert_envelope(status, payload, 400)
        assert "JSON" in payload["error"]["message"]

    def test_non_object_body(self, server):
        status, payload = _post_raw(server, "/v1/sweep", b"[1, 2, 3]")
        _assert_envelope(status, payload, 400)

    def test_oversized_body_is_413(self, server):
        blob = b'{"cache": "' + b"x" * (3 * 1024 * 1024) + b'"}'
        status, payload = _post_raw(server, "/v1/sweep", blob)
        _assert_envelope(status, payload, 413)

    def test_unknown_endpoint_404(self, client):
        with pytest.raises(ServiceError) as caught:
            client.request("POST", "/v1/nonsense", {})
        assert caught.value.status == 404

    def test_wrong_method_405(self, client):
        with pytest.raises(ServiceError) as caught:
            client.request("GET", "/v1/sweep")
        assert caught.value.status == 405


class TestSweepValidation:
    @pytest.mark.parametrize("mutation, expected_status, needle", [
        ({"vth": None}, 400, "vth"),                       # missing axis
        ({"vth": [0.9, 0.3]}, 400, "design box"),          # Vth out of range
        ({"tox": [5.0]}, 400, "design box"),               # Tox out of range
        ({"vth": [0.3, "x"]}, 400, "number"),              # wrong type
        ({"vth": []}, 400, "empty"),                       # empty axis
        ({"components": ["flux_capacitor"]}, 400, "component"),
        ({"surprise": 1}, 400, "unknown"),                 # unknown field
        ({"cache": {"size_kb": 16, "ways": 2}}, 400, "unknown"),
        ({"cache": None}, 400, "cache"),                   # missing cache
        ({"vth": {"min": 0.3, "max": 0.2, "points": 3}}, 400, "exceed"),
    ])
    def test_bad_bodies(self, client, mutation, expected_status, needle):
        body = {**GOOD_SWEEP, **mutation}
        body = {key: value for key, value in body.items()
                if value is not None}
        with pytest.raises(ServiceError) as caught:
            client.request("POST", "/v1/sweep", body)
        _assert_envelope(
            caught.value.status, caught.value.envelope, expected_status
        )
        assert needle.lower() in caught.value.envelope["error"][
            "message"].lower()

    def test_oversized_grid_is_413(self, client):
        body = {
            "cache": {"size_kb": 16},
            "vth": {"min": 0.2, "max": 0.5, "points": 70},
            "tox": {"min": 10, "max": 14, "points": 70},
        }
        with pytest.raises(ServiceError) as caught:
            client.request("POST", "/v1/sweep", body)
        _assert_envelope(caught.value.status, caught.value.envelope, 413)

    def test_oversized_axis_is_413(self, client):
        body = {
            "cache": {"size_kb": 16},
            "vth": [0.2 + 0.3 * index / 300 for index in range(301)],
            "tox": [12.0],
        }
        with pytest.raises(ServiceError) as caught:
            client.request("POST", "/v1/sweep", body)
        _assert_envelope(caught.value.status, caught.value.envelope, 413)


class TestOtherEndpointValidation:
    def test_unknown_scheme(self, client):
        with pytest.raises(ServiceError) as caught:
            client.optimize({"size_kb": 16}, "7", 1200)
        _assert_envelope(caught.value.status, caught.value.envelope, 400)
        assert "scheme" in caught.value.envelope["error"]["message"]

    def test_infeasible_target_is_422_with_best_achievable(self, client):
        with pytest.raises(ServiceError) as caught:
            client.optimize({"size_kb": 16}, "2", 2.0)
        assert caught.value.status == 422
        assert caught.value.envelope["error"]["best_achievable_ps"] > 2.0

    def test_amat_unknown_workload(self, client):
        with pytest.raises(ServiceError) as caught:
            client.amat(workload="quake3")
        _assert_envelope(caught.value.status, caught.value.envelope, 400)
        assert "workload" in caught.value.envelope["error"]["message"]

    def test_amat_bad_blend(self, client):
        with pytest.raises(ServiceError) as caught:
            client.amat(workload={"spec2000": -1.0})
        _assert_envelope(caught.value.status, caught.value.envelope, 400)

    def test_calibrate_trace_cap_is_413(self, client):
        with pytest.raises(ServiceError) as caught:
            client.calibrate(workload="spec2000", n_accesses=50_000_000)
        _assert_envelope(caught.value.status, caught.value.envelope, 413)

    def test_calibrate_unknown_estimator(self, client):
        # Calibration takes one route per policy: the former ``estimator``
        # and ``engine`` selectors are plain unknown fields now.
        for field, value in (("estimator", "oracle"),
                             ("estimator", "setdist"), ("engine", "array")):
            with pytest.raises(ServiceError) as caught:
                client.calibrate(workload="spec2000", **{field: value})
            _assert_envelope(caught.value.status, caught.value.envelope, 400)
            message = caught.value.envelope["error"]["message"]
            assert "unknown field" in message and field in message

    def test_calibrate_unknown_policy(self, client):
        with pytest.raises(ServiceError) as caught:
            client.calibrate(workload="spec2000", policy="plru")
        _assert_envelope(caught.value.status, caught.value.envelope, 400)
        assert "policy" in caught.value.envelope["error"]["message"]

    def test_amat_unknown_policy(self, client):
        with pytest.raises(ServiceError) as caught:
            client.amat(workload="spec2000", policy="mru")
        _assert_envelope(caught.value.status, caught.value.envelope, 400)
        assert "policy" in caught.value.envelope["error"]["message"]

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as caught:
            client.job("job-999999")
        assert caught.value.status == 404


#: A campaign with one small sweep block, for the node-axis rejections.
_NODE_CAMPAIGN = {
    "name": "node-axis",
    "calibration": {"n_accesses": 5_000},
    "sweeps": [{"cache": {"size_kb": 16}, "vth": [0.2], "tox": [9.8],
                "components": ["array"]}],
}

#: A one-point matrix campaign, for the spec rejections.
_MATRIX_CAMPAIGN = {
    "name": "t",
    "matrix": {"l1_sizes_kb": [4, 8], "l1_assocs": [1],
               "l2_sizes_kb": [128], "l2_assocs": [8]},
}

_FULL_AMAT_AXES = {"l1_sizes_kb": [4, 8, 16, 32, 64],
                   "l1_assocs": [1, 2, 4, 8, 16],
                   "l2_sizes_kb": [128, 256, 512, 1024],
                   "l2_assocs": [1, 2, 4, 8, 16]}


def _with(base: dict, **overrides) -> dict:
    return {**base, **overrides}


#: Every rejection the validation, node-scaling and campaign-spec suites
#: exercise, as (path, body, status, strings the message must contain).
#: The strings name the request field; where a message names no field
#: path, they name the field itself.
REJECTIONS = {
    "malformed-json": ("/v1/sweep", b"{nope nope", 400, ["JSON"]),
    "non-object-body": ("/v1/sweep", b"[1, 2, 3]", 400, ["sweep request"]),
    "oversized-body": ("/v1/sweep",
                       b'{"cache": "' + b"x" * (3 * 1024 * 1024) + b'"}',
                       413, ["request body"]),
    "sweep-missing-axis": ("/v1/sweep", _with(GOOD_SWEEP, tox=None), 400,
                           ["sweep", "'tox'"]),
    "sweep-vth-out-of-box": ("/v1/sweep", _with(GOOD_SWEEP, vth=[0.9, 0.3]),
                             400, ["sweep.vth", "design box"]),
    "sweep-tox-out-of-box": ("/v1/sweep", _with(GOOD_SWEEP, tox=[5.0]), 400,
                             ["sweep.tox", "design box"]),
    "sweep-axis-entry-type": ("/v1/sweep", _with(GOOD_SWEEP, vth=[0.3, "x"]),
                              400, ["sweep.vth", "number"]),
    "sweep-empty-axis": ("/v1/sweep", _with(GOOD_SWEEP, vth=[]), 400,
                         ["sweep.vth", "empty"]),
    "sweep-unknown-component": (
        "/v1/sweep", _with(GOOD_SWEEP, components=["flux_capacitor"]), 400,
        ["component", "flux_capacitor"]),
    "sweep-unknown-field": ("/v1/sweep", _with(GOOD_SWEEP, surprise=1), 400,
                            ["sweep request", "surprise"]),
    "sweep-cache-unknown-field": (
        "/v1/sweep", _with(GOOD_SWEEP, cache={"size_kb": 16, "ways": 2}),
        400, ["sweep.cache", "ways"]),
    "sweep-missing-cache": ("/v1/sweep", _with(GOOD_SWEEP, cache=None), 400,
                            ["sweep.cache"]),
    "sweep-axis-max-below-min": (
        "/v1/sweep",
        _with(GOOD_SWEEP, vth={"min": 0.3, "max": 0.2, "points": 3}),
        400, ["sweep.vth", "exceed"]),
    "sweep-grid-over-budget": (
        "/v1/sweep",
        _with(GOOD_SWEEP, vth={"min": 0.2, "max": 0.5, "points": 70},
              tox={"min": 10, "max": 14, "points": 70}),
        413, ["sweep", "grid points"]),
    "sweep-axis-over-budget": (
        "/v1/sweep",
        _with(GOOD_SWEEP, vth=[0.2 + 0.3 * i / 300 for i in range(301)],
              tox=[12.0]),
        413, ["sweep.vth", "301 points"]),
    "sweep-unknown-node": ("/v1/sweep", _with(GOOD_SWEEP, node=14), 400,
                           ["sweep.node", "14"] + [str(n) for n in NODES]),
    "sweep-unknown-style": (
        "/v1/sweep", _with(GOOD_SWEEP, node=22, scaling_style="moore"), 400,
        ["sweep.scaling_style", "moore"]),
    "sweep-tox-outside-node-box": (
        "/v1/sweep", _with(GOOD_SWEEP, vth=[0.2], tox=[12.0], node=8), 400,
        ["sweep.tox", "design box"]),
    "optimize-unknown-scheme": (
        "/v1/optimize",
        {"cache": {"size_kb": 16}, "scheme": "7", "target_ps": 1200}, 400,
        ["scheme", "'7'"]),
    "optimize-unknown-node": (
        "/v1/optimize",
        {"cache": {"size_kb": 16}, "scheme": "3", "target_ps": 900,
         "node": 14},
        400, ["optimize.node", "14"] + [str(n) for n in NODES]),
    "amat-unknown-workload": ("/v1/amat", {"workload": "quake3"}, 400,
                              ["workload", "quake3"]),
    "amat-negative-blend-weight": (
        "/v1/amat", {"workload": {"spec2000": -1.0}}, 400,
        ["amat.workload"]),
    "amat-unknown-policy": (
        "/v1/amat", {"workload": "spec2000", "policy": "mru"}, 400,
        ["policy", "mru"]),
    "amat-unknown-node": (
        "/v1/amat", {"workload": "spec2000", "l2_size_kb": 256, "node": 14},
        400, ["amat.node", "14"] + [str(n) for n in NODES]),
    "amat-knobs-outside-node-box": (
        "/v1/amat",
        {"workload": "spec2000", "l1_size_kb": 16, "l2_size_kb": 256,
         "node": 11, "scaling_style": "cons",
         "l1_knobs": {"vth": 0.3, "tox": 12.0}},
        400, ["amat.l1_knobs", "above the maximum 11"]),
    "calibrate-trace-over-cap": (
        "/v1/calibrate", {"workload": "spec2000", "n_accesses": 50_000_000},
        413, ["calibrate.n_accesses"]),
    "calibrate-unknown-field": (
        "/v1/calibrate", {"workload": "spec2000", "estimator": "oracle"},
        400, ["calibrate request", "estimator"]),
    "calibrate-unknown-policy": (
        "/v1/calibrate", {"workload": "spec2000", "policy": "plru"}, 400,
        ["policy", "plru"]),
    "campaign-unknown-node": (
        "/v1/campaigns", _with(_NODE_CAMPAIGN, nodes=[22, 14]), 400,
        ["campaign.nodes", "14"]),
    "campaign-per-block-node": (
        "/v1/campaigns",
        _with(_NODE_CAMPAIGN, sweeps=[{**_NODE_CAMPAIGN["sweeps"][0],
                                       "node": 22}]),
        400, ["campaign.sweeps[0]", "campaign level"]),
    "campaign-axes-outside-a-listed-node": (
        "/v1/campaigns",
        _with(_NODE_CAMPAIGN, nodes=[22, 8], scaling_style="itrs"), 400,
        ["campaign.sweeps[0]", "8"]),
    "campaign-no-block": ("/v1/campaigns", {"name": "empty"}, 400,
                          ["campaign", "at least one"]),
    "campaign-unknown-field": (
        "/v1/campaigns", _with(_MATRIX_CAMPAIGN, surprise=1), 400,
        ["campaign request", "surprise"]),
    "campaign-duplicate-workloads": (
        "/v1/campaigns",
        _with(_MATRIX_CAMPAIGN, workloads=["spec2000", "spec2000"]), 400,
        ["campaign.workloads", "duplicate"]),
    "campaign-unknown-policy": (
        "/v1/campaigns", _with(_MATRIX_CAMPAIGN, policies=["mru"]), 400,
        ["campaign.policies", "mru"]),
    "campaign-off-surface-point": (
        "/v1/campaigns", _with(_MATRIX_CAMPAIGN, matrix={"l1_sizes_kb": [5]}),
        400, ["campaign.matrix", "surface"]),
    "campaign-trace-too-short": (
        "/v1/campaigns",
        _with(_MATRIX_CAMPAIGN, calibration={"n_accesses": 10}), 400,
        ["campaign.calibration.n_accesses"]),
    "campaign-trace-over-cap": (
        "/v1/campaigns",
        _with(_MATRIX_CAMPAIGN, calibration={"n_accesses": 10_000_000}), 413,
        ["campaign.calibration.n_accesses"]),
    "campaign-constraints-without-amat": (
        "/v1/campaigns",
        _with(_MATRIX_CAMPAIGN, constraints={"max_amat_ps": 2000}), 400,
        ["campaign.constraints", "amat"]),
    "campaign-sweep-out-of-box": (
        "/v1/campaigns",
        _with(_MATRIX_CAMPAIGN, sweeps=[{"cache": {"size_kb": 16},
                                         "vth": [9.9], "tox": [12]}]),
        400, ["campaign.sweeps[0]", "vth"]),
    "campaign-matrix-over-cap": (
        "/v1/campaigns",
        {"workloads": ["spec2000", "specweb", "tpcc"],
         "policies": ["lru", "fifo", "random"], "matrix": {},
         "max_units": 50},
        400, ["campaign.matrix expands to 108 units", "the limit is 50"]),
    "campaign-amat-over-cap": (
        "/v1/campaigns",
        {"amat": {"l1_sizes_kb": [4, 8, 16], "l1_assocs": [1, 2],
                  "l2_sizes_kb": [256, 1024], "l2_assocs": [8, 16]},
         "max_units": 10},
        400, ["campaign.amat expands to 24 units"]),
    "campaign-optimize-over-cap": (
        "/v1/campaigns",
        {"optimize": {"caches": [{"size_kb": kb} for kb in (8, 16, 32, 64)],
                      "schemes": ["1", "2", "3"],
                      "target_ps": [float(t) for t in range(900, 1700, 50)]},
         "max_units": 100},
        400, ["campaign.optimize expands to 192 units"]),
    "campaign-total-over-cap": (
        "/v1/campaigns",
        {"matrix": {},
         "amat": {"l1_sizes_kb": [8], "l1_assocs": [2],
                  "l2_sizes_kb": [1024], "l2_assocs": [8]},
         "max_units": 13},
        400, ["campaign expands to 14 units", "the limit is 13"]),
    "campaign-max-units-cannot-raise-the-cap": (
        "/v1/campaigns",
        {"workloads": ["spec2000", "specweb", "tpcc"],
         "policies": ["lru", "fifo", "random"], "amat": _FULL_AMAT_AXES,
         "max_units": 10 * MAX_CAMPAIGN_UNITS},
        400, ["campaign.amat", f"the limit is {MAX_CAMPAIGN_UNITS}"]),
    "campaign-sweep-grid-over-budget": (
        "/v1/campaigns",
        _with(_MATRIX_CAMPAIGN, sweeps=[{
            "cache": {"size_kb": 16},
            "vth": {"min": 0.2, "max": 0.5, "points": 100},
            "tox": {"min": 10, "max": 14, "points": 100}}]),
        413, ["campaign.sweeps[0]", "grid points"]),
    "campaign-optimize-target-out-of-range": (
        "/v1/campaigns",
        {"optimize": {"caches": [{"size_kb": 16}], "target_ps": [1200, 0.5]}},
        400, ["campaign.optimize.target_ps[1]"]),
}


class TestRejectionPins:
    """Each rejection keeps its status, its type and its field path."""

    @pytest.mark.parametrize("case", sorted(REJECTIONS))
    def test_rejection(self, server, case):
        path, body, expected_status, needles = REJECTIONS[case]
        if isinstance(body, dict):
            body = json.dumps({key: value for key, value in body.items()
                               if value is not None}).encode("utf-8")
        status, payload = _post_raw(server, path, body)
        _assert_envelope(status, payload, expected_status)
        assert payload["error"]["type"] == "ValidationError"
        for needle in needles:
            assert needle in payload["error"]["message"]


#: An integer far past the float range (JSON allows any digit count).
HUGE = 10 ** 400


class TestLibraryRuleVerdicts:
    """Inputs whose verdict comes from the library's one rule."""

    @pytest.mark.parametrize("path, body, field", [
        ("/v1/sweep", _with(GOOD_SWEEP, cache={"size_kb": HUGE}),
         "sweep.cache.size_kb"),
        ("/v1/sweep", _with(GOOD_SWEEP, vth=[0.3, HUGE]), "sweep.vth"),
        ("/v1/calibrate", {"workload": "spec2000", "seed": HUGE},
         "calibrate.seed"),
        ("/v1/amat", {"workload": {"spec2000": HUGE, "tpcc": 1.0}},
         "amat.workload['spec2000']"),
        ("/v1/campaigns", _with(_MATRIX_CAMPAIGN, max_units=HUGE),
         "campaign.max_units"),
    ])
    def test_huge_integers_are_400s(self, server, path, body, field):
        status, payload = _post_raw(server, path, json.dumps(body).encode())
        _assert_envelope(status, payload, 400)
        assert payload["error"]["type"] == "ValidationError"
        assert field in payload["error"]["message"]

    def test_overflowing_blend_is_400(self, client):
        with pytest.raises(ServiceError) as caught:
            client.amat(workload={"spec2000": 1e308, "tpcc": 1e308})
        _assert_envelope(caught.value.status, caught.value.envelope, 400)
        assert caught.value.envelope["error"]["type"] == "ValidationError"
        assert "amat.workload" in caught.value.envelope["error"]["message"]

    def test_fractional_byte_size_is_400(self, client):
        with pytest.raises(ServiceError) as caught:
            client.request("POST", "/v1/sweep",
                           _with(GOOD_SWEEP, cache={"size_kb": 16.0004}))
        _assert_envelope(caught.value.status, caught.value.envelope, 400)
        assert "sweep.cache.size_kb" in caught.value.envelope["error"][
            "message"]

    @pytest.mark.parametrize("size_kb", [16, 16.0])
    def test_whole_byte_sizes_are_accepted(self, client, size_kb):
        response = client.request(
            "POST", "/v1/sweep",
            {"cache": {"size_kb": size_kb}, "vth": [0.3], "tox": [12.0],
             "components": ["array"]},
        )
        assert response["components"]["array"]["delay_ps"]

    def test_tox_within_rounding_of_the_box_is_accepted(self, client):
        # The box rule allows 1e-9 Å of slack on Tox, and no more.
        response = client.request(
            "POST", "/v1/sweep",
            {"cache": {"size_kb": 16}, "vth": [0.3], "tox": [14.0 + 5e-10],
             "components": ["array"]},
        )
        assert response["components"]["array"]["delay_ps"]
        with pytest.raises(ServiceError) as caught:
            client.request(
                "POST", "/v1/sweep",
                {"cache": {"size_kb": 16}, "vth": [0.3],
                 "tox": [14.0 + 1e-8], "components": ["array"]},
            )
        assert caught.value.status == 400
        assert "sweep.tox" in caught.value.envelope["error"]["message"]


def test_daemon_survives_with_no_500s(server, client):
    """Runs last in the module: the barrage above left the daemon clean."""
    assert client.healthz()["status"] == "ok"
    counters = client.metrics()["counters"]
    fives = {name: count for name, count in counters.items()
             if name.startswith("errors.5")}
    assert fives == {}
    assert counters.get("errors.400", 0) > 0
    assert counters.get("errors.413", 0) > 0
