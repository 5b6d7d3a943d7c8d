"""End-to-end smoke test of the service daemon — the CI gate.

It spawns the real thing as a subprocess:

    PYTHONPATH=src python tools/service_smoke.py

It starts ``python -m repro serve`` on an ephemeral port, waits for the
port file, then asserts the service contract:

* ``/healthz`` answers,
* a burst of concurrent identical sweeps is coalesced into fewer engine
  calls than requests (the ``sweep.coalesced_requests`` counter is
  positive and ``evaluate_grid_calls_per_request < 1``),
* malformed and out-of-range bodies get structured 4xx envelopes and the
  daemon stays alive,
* a small FIFO-policy calibration job round-trips: the snapshot and
  result carry the policy label and the curves come back non-empty,
* a calibrate carrying an associativity axis computes the dense profile
  surface once (``served_from: "engine"``); a repeat over a sub-grid is
  answered synchronously from the profile store (``"status": "done"``
  on submission, ``served_from: "profile_store"``) with bit-identical
  rates,
* a campaign round-trips: submit -> long-poll progress -> cancel ->
  resubmit; the resubmission resumes from the cancelled run's
  checkpoints (``units.reused`` covers everything the first run
  completed) and finishes, an over-budget spec gets a structured 400
  naming the offending axis product, and the campaign counters appear
  in ``/metrics``; a campaign sweep unit's result equals a direct
  ``/v1/sweep`` of the same body,
* SIGTERM produces a graceful exit (code 0, jobs drained).

``--workers N`` runs the same contract against a forked multi-worker
deployment (``serve --workers N``): every counter assertion switches to
the merged ``/metrics?scope=cluster`` view (a single worker's registry
only sees the slice of traffic the kernel handed it), the cluster view
must show all N workers alive, and the SIGTERM check covers the
supervisor's coordinated drain.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

REPO_SRC = "src"
if REPO_SRC not in sys.path:
    sys.path.insert(0, REPO_SRC)

from repro.service.client import ServiceClient, ServiceError  # noqa: E402

#: Concurrent identical sweeps fired to exercise the batcher.
BURST = 8


#: Workers flush snapshots to the cluster board every 0.25 s; cluster
#: counter scrapes wait out two flush periods first.
CLUSTER_FLUSH_WAIT_SECONDS = 0.6


def _fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def _counters(client: ServiceClient, cluster: bool) -> dict:
    """One worker's counters, or the settled merged fleet counters."""
    if cluster:
        time.sleep(CLUSTER_FLUSH_WAIT_SECONDS)
        return client.metrics(scope="cluster")["merged"]["counters"]
    return client.metrics()["counters"]


def check_service(host: str, port: int, workers: int = 1) -> None:
    """Assert the service contract against a live daemon."""
    cluster = workers > 1
    client = ServiceClient(host=host, port=port, timeout=30.0,
                           connect_retries=4)

    health = client.healthz()
    if health.get("status") != "ok":
        _fail(f"/healthz returned {health}")
    print("  healthz: ok")

    if cluster:
        # Workers appear on the board at their first 0.25 s flush, so
        # give a freshly-booted fleet a moment to publish itself.
        deadline = time.time() + 10.0
        while True:
            view = client.metrics(scope="cluster")
            alive = [worker_id
                     for worker_id, record in view["workers"].items()
                     if record.get("alive")]
            if len(alive) >= workers:
                break
            if time.time() > deadline:
                _fail(f"cluster view shows {len(alive)} live workers, "
                      f"expected {workers}: {sorted(view['workers'])}")
            time.sleep(0.1)
        print(f"  cluster: {len(alive)} live workers on the board, "
              f"served by {view['served_by']}")

    # Concurrent identical sweeps must coalesce into one engine call.
    before = _counters(client, cluster)
    body = {
        "cache": {"size_kb": 16},
        "vth": {"min": 0.2, "max": 0.5, "points": 7},
        "tox": {"min": 10, "max": 14, "points": 5},
    }
    results, failures = [], []
    barrier = threading.Barrier(BURST)

    def fire():
        worker = ServiceClient(host=host, port=port, timeout=30.0,
                               connect_retries=4)
        barrier.wait()
        try:
            results.append(worker.request("POST", "/v1/sweep", body))
        except Exception as error:  # noqa: BLE001 - report, don't die
            failures.append(repr(error))
        finally:
            worker.close()

    threads = [threading.Thread(target=fire) for _ in range(BURST)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        _fail(f"sweep burst had failures: {failures[:3]}")
    first = json.dumps(results[0], sort_keys=True)
    if any(json.dumps(result, sort_keys=True) != first
           for result in results[1:]):
        _fail("coalesced sweeps returned different payloads")
    after = _counters(client, cluster)
    coalesced = (after.get("sweep.coalesced_requests", 0)
                 - before.get("sweep.coalesced_requests", 0))
    cache_hits = (after.get("sweep.response_cache_hits", 0)
                  - before.get("sweep.response_cache_hits", 0))
    requests = (after.get("requests.sweep", 0)
                - before.get("requests.sweep", 0))
    calls = (after.get("sweep.evaluate_grid_calls", 0)
             - before.get("sweep.evaluate_grid_calls", 0))
    batches = (after.get("sweep.batches", 0)
               - before.get("sweep.batches", 0))
    if requests != BURST:
        _fail(f"expected {BURST} sweep requests, metrics saw {requests}")
    if coalesced + cache_hits < 1:
        _fail(f"no coalescing observed across {BURST} concurrent sweeps")
    # One batch execution costs one evaluate_grid call per component
    # (4 for an unrestricted sweep); unbatched, every request would pay
    # all 4.  A single process folds the whole burst into ~1 batch; a
    # fleet pays at most one batch per worker the kernel spread the
    # burst across, so the cluster bound is per-batch, not per-request.
    calls_ceiling = 4 * batches if cluster else requests
    if batches >= requests or calls > calls_ceiling:
        _fail(f"{calls} evaluate_grid calls in {batches} batches for "
              f"{requests} requests — batching is not amortising "
              f"engine work")
    print(f"  batching: {requests} concurrent sweeps -> {batches} "
          f"batches, {calls} evaluate_grid calls ({coalesced} "
          f"coalesced, {cache_hits} response-cache hits)")

    # Malformed input: structured 4xx, daemon survives.
    bad_bodies = [
        ("not json at all", None),
        ("bad vth", {"cache": {"size_kb": 16}, "vth": [9.9], "tox": [12]}),
        ("unknown field", {"cache": {"size_kb": 16}, "vth": [0.3],
                           "tox": [12], "surprise": 1}),
    ]
    for label, payload in bad_bodies:
        try:
            if payload is None:
                import http.client

                connection = http.client.HTTPConnection(host, port, timeout=10)
                connection.request(
                    "POST", "/v1/sweep", body=b"{nope",
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                status = response.status
                envelope = json.loads(response.read())
                connection.close()
            else:
                client.request("POST", "/v1/sweep", payload)
                _fail(f"{label}: expected a 4xx, got a 2xx")
        except ServiceError as error:
            status, envelope = error.status, error.envelope
        if not 400 <= status < 500:
            _fail(f"{label}: expected 4xx, got {status}")
        if "error" not in envelope or "message" not in envelope["error"]:
            _fail(f"{label}: missing structured envelope: {envelope}")
    if client.healthz().get("status") != "ok":
        _fail("daemon unhealthy after malformed-input barrage")
    print(f"  validation: {len(bad_bodies)} malformed bodies -> structured "
          f"4xx, daemon alive")

    # A non-LRU calibration job must round-trip with its policy label.
    job = client.calibrate(workload="spec2000", n_accesses=20_000,
                           policy="fifo", l1_grid_kb=[4, 8],
                           l2_grid_kb=[128])
    done = client.wait_for_job(job["job_id"], timeout=120)
    if done.get("status") != "done":
        _fail(f"fifo calibration job ended {done.get('status')!r}: {done}")
    if done.get("policy") != "fifo":
        _fail(f"job snapshot lost its policy label: {done}")
    result = done.get("result", {})
    if result.get("policy") != "fifo":
        _fail(f"calibration result lost its policy label: {result}")
    if not result.get("l1_curve") or not result.get("l2_curve"):
        _fail(f"fifo calibration returned empty curves: {result}")
    print(f"  calibrate: fifo job done, policy label on snapshot and "
          f"result, {len(result['l1_curve'])}-point L1 curve")

    # Profile store: a calibrate with an assoc axis computes the dense
    # (size, assoc) surface once; a repeat over any sub-grid must then
    # be served synchronously from the store with identical rates.
    first = client.calibrate(workload="spec2000", n_accesses=20_000,
                             l1_grid_kb=[4, 8], l2_grid_kb=[128, 256],
                             l1_assocs=[1, 2], l2_assocs=[8])
    first_done = client.wait_for_job(first["job_id"], timeout=120)
    if first_done.get("status") != "done":
        _fail(f"assoc calibration job ended "
              f"{first_done.get('status')!r}: {first_done}")
    if first_done.get("served_from") != "engine":
        _fail(f"first assoc calibrate should have run the engine: "
              f"{first_done}")
    second = client.calibrate(workload="spec2000", n_accesses=20_000,
                              l1_grid_kb=[8], l2_grid_kb=[256],
                              l1_assocs=[1], l2_assocs=[8])
    if second.get("status") != "done":
        _fail(f"warm-store calibrate was not served synchronously: "
              f"{second}")
    second_done = client.job(second["job_id"])
    if second_done.get("served_from") != "profile_store":
        _fail(f"warm-store calibrate not labelled as store-served: "
              f"{second_done}")
    warm = second_done.get("result", {})
    if not warm.get("l1_assoc_curves"):
        _fail(f"store-served result lost its assoc curves: {warm}")
    cold_l1 = {size: rate
               for size, rate in first_done["result"]["l1_curve"]}
    for size, rate in warm.get("l1_curve", []):
        if cold_l1.get(size) != rate:
            _fail(f"store-served L1 rate diverged at {size} B: "
                  f"{rate} != {cold_l1.get(size)}")
    print("  profile store: assoc calibrate ran the engine once; repeat "
          "sub-grid served synchronously, rates identical")

    check_node_round_trip(client)
    check_campaigns(client, cluster=cluster)
    client.close()


def check_node_round_trip(client: ServiceClient) -> None:
    """Non-default technology node: sweep + optimize round trip.

    The same cache geometry at 22 nm must be served from the scaled
    node's technology (faster than 65 nm, never from a 65 nm cache
    entry), the optimum must land inside the 22 nm design box, and an
    unknown node must draw a structured 400 naming the family.
    """
    at_65 = client.request("POST", "/v1/sweep", {
        "cache": {"size_kb": 16}, "vth": [0.25], "tox": [10.5],
        "components": ["array"],
    })
    at_22 = client.request("POST", "/v1/sweep", {
        "cache": {"size_kb": 16}, "vth": [0.25], "tox": [10.5],
        "components": ["array"], "node": 22, "scaling_style": "cons",
    })
    if at_22.get("node") != 22 or at_22.get("scaling_style") != "cons":
        _fail(f"sweep response lost its node labels: {at_22}")
    delay_65 = at_65["components"]["array"]["delay_ps"][0][0]
    delay_22 = at_22["components"]["array"]["delay_ps"][0][0]
    if not delay_22 < delay_65:
        _fail(f"22 nm sweep not faster than 65 nm: "
              f"{delay_22} ps vs {delay_65} ps")

    optimum = client.request("POST", "/v1/optimize", {
        "cache": {"size_kb": 16}, "scheme": "2", "target_ps": 250,
        "node": 22, "scaling_style": "cons",
    })
    if optimum.get("node") != 22:
        _fail(f"optimize response lost its node label: {optimum}")
    for component, knob in optimum["assignment"].items():
        if not 8.5 - 1e-9 <= knob["tox_angstrom"] <= 11.9 + 1e-9:
            _fail(f"optimize {component} Tox {knob['tox_angstrom']} Å "
                  "outside the 22 nm cons box [8.5, 11.9]")

    try:
        client.request("POST", "/v1/sweep", {
            "cache": {"size_kb": 16}, "vth": [0.25], "tox": [10.5],
            "node": 14,
        })
        _fail("unknown node 14 was accepted")
    except ServiceError as error:
        if error.status != 400 or "65" not in str(error):
            _fail(f"unknown node: expected a 400 naming the family, "
                  f"got {error.status}: {error}")
    print(f"  nodes: 22 nm sweep {delay_22:.1f} ps < 65 nm "
          f"{delay_65:.1f} ps, optimum inside the 22 nm box, "
          "unknown node -> structured 400")


def check_campaigns(client: ServiceClient, cluster: bool = False) -> None:
    """Campaign round trip: submit -> progress -> cancel -> resume."""
    # An over-budget spec must be rejected up front with a structured
    # 400 naming the axis product, before any work is scheduled.
    fat = {
        "workloads": ["spec2000", "specweb", "tpcc"],
        "policies": ["lru", "fifo", "random"],
        "matrix": {},  # defaults: full L1/L2 grids
        "max_units": 50,
    }
    try:
        client.submit_campaign(fat)
        _fail("over-budget campaign was accepted")
    except ServiceError as error:
        if error.status != 400:
            _fail(f"over-budget campaign: expected 400, got {error.status}")
        message = error.envelope.get("error", {}).get("message", "")
        if "expands to" not in message or "limit" not in message:
            _fail(f"budget 400 does not name the expansion: {message!r}")

    spec = {
        "name": "smoke-campaign",
        "workloads": ["spec2000", "specweb"],
        "policies": ["lru"],
        "calibration": {"n_accesses": 60_000},
        "matrix": {"l1_sizes_kb": [4, 8, 16], "l1_assocs": [1, 2],
                   "l2_sizes_kb": [256], "l2_assocs": [8]},
        "optimize": {"caches": [{"size_kb": 16}], "schemes": ["1", "3"],
                     "target_ps": [900.0, 1100.0]},
    }
    first = client.submit_campaign(spec)
    campaign_id = first["campaign_id"]
    total = first["units"]["total"]
    if first["status"] not in ("running", "done"):
        _fail(f"campaign submission returned {first['status']!r}")
    # One long-poll progress read, then cancel mid-flight.
    progress = client.campaign(campaign_id, wait=0.2, results=False)
    if "units" not in progress or "results" in progress:
        _fail(f"progress snapshot malformed: {sorted(progress)}")
    cancelled = client.cancel_campaign(campaign_id)
    if cancelled["status"] not in ("cancelled", "done"):
        _fail(f"cancel left the campaign {cancelled['status']!r}")
    finished = cancelled["units"]["done"]

    # The resubmitted identical spec must resume from the cancelled
    # run's checkpoints: everything the first run completed comes back
    # as a reused unit, and the campaign runs to done.
    second = client.submit_campaign(spec)
    final = client.wait_for_campaign(second["campaign_id"], timeout=180.0)
    if final["status"] != "done":
        _fail(f"resubmitted campaign ended {final['status']!r}: "
              f"{final.get('failures')}")
    if final["units"]["total"] != total:
        _fail(f"resubmission changed the unit count: "
              f"{final['units']['total']} != {total}")
    if final["units"]["reused"] < finished:
        _fail(f"resubmission reused {final['units']['reused']} units but "
              f"the cancelled run had checkpointed {finished}")
    counters = _counters(client, cluster)
    for name in ("campaigns.submitted", "campaigns.units_done",
                 "campaigns.engine_passes"):
        if counters.get(name, 0) < 1:
            _fail(f"campaign counter {name} missing from /metrics")
    print(f"  campaigns: over-budget spec rejected with a structured 400; "
          f"cancel after {finished}/{total} units; resubmission reused "
          f"{final['units']['reused']} checkpointed units and finished "
          f"with {final['engine_passes']} engine passes")

    # A campaign sweep unit and POST /v1/sweep share one answer path:
    # the same body must come back as the same JSON from both.
    body = {"cache": {"size_kb": 32, "name": "smoke-parity"},
            "vth": [0.3, 0.35], "tox": [12.0, 14.0],
            "components": ["array", "decoder"]}
    parity = client.submit_campaign({"name": "smoke-sweep-parity",
                                     "sweeps": [body]})
    parity = client.wait_for_campaign(parity["campaign_id"], timeout=120.0)
    if parity["status"] != "done":
        _fail(f"sweep parity campaign ended {parity['status']!r}: "
              f"{parity.get('failures')}")
    (unit,) = parity["results"]["sweep"]
    unit = {key: value for key, value in unit.items() if key != "unit_id"}
    direct = client.request("POST", "/v1/sweep", body)
    if json.dumps(unit, sort_keys=True) != json.dumps(direct, sort_keys=True):
        _fail("campaign sweep unit differs from a direct /v1/sweep of the "
              "same body")
    print("  campaigns: a sweep unit's result equals /v1/sweep of the "
          "same body")


def run_subprocess(timeout: float = 60.0, workers: int = 1) -> int:
    with tempfile.TemporaryDirectory() as scratch:
        port_file = os.path.join(scratch, "port")
        environment = dict(os.environ)
        environment["PYTHONPATH"] = REPO_SRC + (
            os.pathsep + environment["PYTHONPATH"]
            if environment.get("PYTHONPATH") else ""
        )
        command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--port-file", port_file,
                   "--cache-dir", os.path.join(scratch, "cache")]
        if workers > 1:
            command += ["--workers", str(workers)]
        process = subprocess.Popen(
            command,
            env=environment,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            deadline = time.time() + timeout
            while not os.path.exists(port_file):
                if process.poll() is not None:
                    _fail(f"daemon exited early:\n{process.stdout.read()}")
                if time.time() > deadline:
                    _fail("daemon never wrote its port file")
                time.sleep(0.05)
            with open(port_file) as handle:
                port = int(handle.read().strip())
            label = (f"supervisor pid {process.pid}, {workers} workers"
                     if workers > 1 else f"subprocess pid {process.pid}")
            print(f"service smoke ({label}, port {port}):")
            check_service("127.0.0.1", port, workers=workers)
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                _fail("daemon did not exit within 15 s of SIGTERM")
            output = process.stdout.read()
            if process.returncode != 0:
                _fail(f"daemon exited {process.returncode} on SIGTERM:\n"
                      f"{output}")
            if "shutdown complete" not in output:
                _fail(f"no graceful-shutdown line in daemon output:\n"
                      f"{output}")
            print("  sigterm: exit 0, graceful shutdown confirmed")
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
    print("OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=1,
                        help="run the subprocess daemon with this many "
                             "forked workers and assert the contract "
                             "through the cluster metrics view "
                             "(default 1)")
    arguments = parser.parse_args(argv)
    return run_subprocess(workers=arguments.workers)


if __name__ == "__main__":
    sys.exit(main())
