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


def test_daemon_survives_with_no_500s(server, client):
    """Runs last in the module: the barrage above left the daemon clean."""
    assert client.healthz()["status"] == "ok"
    counters = client.metrics()["counters"]
    fives = {name: count for name, count in counters.items()
             if name.startswith("errors.5")}
    assert fives == {}
    assert counters.get("errors.400", 0) > 0
    assert counters.get("errors.413", 0) > 0
