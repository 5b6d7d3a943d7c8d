"""``serve``: a closed-loop warm request mix against the HTTP daemon.

The daemon runs as ``python -m repro serve`` in its own process with
``--port 0``, a fresh ``--cache-dir`` and ``--warm-profiles spec2000``.
Two keep-alive :class:`~repro.service.client.ServiceClient` connections,
one thread each, send a seeded mix in a closed loop (each waits for its
reply before sending the next request, as the service's own clients
do).  Set-up is daemon spawn -> ``/healthz`` reports the profile warm ->
one untimed pass over every distinct request template of the mix, so
the timed phase holds only warm operations.
"""

from __future__ import annotations

import bisect
import json
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench import layers
from perfbench.common import (
    ROOT,
    SCRATCH,
    balanced_blocks,
    cpu_seconds,
    geometric_mean,
    host_probe,
    kind_medians,
    median,
    nested_close,
    normalised,
    pace,
    peak_rss_mb,
    seeded_rng,
    tail,
    typical_rate,
)

#: Set-ups (daemon spawns) measured per run; the median is reported and
#: the determinism gate compares their counters.
SETUP_SAMPLES = 3
CONNECTIONS = 2
WARM = "spec2000"

CACHES = {
    "l1_16k": {"size_kb": 16, "block_bytes": 32, "associativity": 2,
               "output_bits": 64},
    "l1_32k": {"size_kb": 32, "block_bytes": 32, "associativity": 4,
               "output_bits": 64},
    "l2_1m": {"size_kb": 1024, "block_bytes": 64, "associativity": 8,
              "output_bits": 256},
}
SWEEP_AXES = {"vth": [0.2, 0.3, 0.4, 0.5], "tox": [10.0, 12.0, 14.0]}
#: Feasible delay targets (ps): 1.1-1.5x each cache's fastest access.
TARGETS_PS = {"l1_16k": (700.0, 900.0), "l1_32k": (900.0, 1100.0),
              "l2_1m": (5000.0, 6000.0)}
AMAT_SIZES = [(l1, l2) for l1 in (8, 16, 32) for l2 in (512, 1024, 2048)]
CALIBRATIONS = (
    {"workload": WARM},
    {"workload": WARM, "l1_assocs": [1, 2, 4]},
    {"workload": WARM, "l2_assocs": [4, 8, 16], "l2_grid_kb": [256, 1024]},
)
CAMPAIGNS = (
    {"matrix": {"l1_sizes_kb": [8, 16], "l1_assocs": [2],
                "l2_sizes_kb": [512, 1024], "l2_assocs": [8]}},
    {"amat": {"l1_sizes_kb": [8, 16], "l1_assocs": [2],
              "l2_sizes_kb": [1024], "l2_assocs": [8]},
     "constraints": {"max_amat_ps": 6000}},
    {"matrix": {"l1_sizes_kb": [32], "l1_assocs": [1, 2],
                "l2_sizes_kb": [2048], "l2_assocs": [8]},
     "amat": {"l1_sizes_kb": [32], "l1_assocs": [2],
              "l2_sizes_kb": [2048], "l2_assocs": [8]}},
)
#: The op kinds of each route.  No client in the repository sends a
#: mixed request stream to copy shares from, so the shares are simply
#: equal: every route has the same share of each block, split equally
#: between its kinds.
KINDS = {
    "sweep": ("sweep_hit", "sweep_batch"),
    "amat": ("amat_ref", "amat_nonref"),
    "optimize": ("optimize_1", "optimize_2", "optimize_3"),
    "jobs": ("jobs",),
    "campaign": ("campaign",),
    "metrics": ("metrics",),
}
ROUTE = {kind: route for route, kinds in KINDS.items() for kind in kinds}
#: Ops of each route in every shuffled block (divisible by 1, 2 and 3).
PER_ROUTE = 6
MIX = {kind: PER_ROUTE // len(kinds)
       for kinds in KINDS.values() for kind in kinds}
#: One op in this many has its payload checked against the library.
CHECK_EVERY = 12
#: Seconds between the pauses of the timed phase that pace the host.
PACE_EVERY = 1.0


class GateError(RuntimeError):
    """Counters that must repeat exactly did not."""


def _sweep_body(cache: str, name: str) -> dict:
    return {"cache": dict(CACHES[cache], name=name), **SWEEP_AXES}


def make_op(kind: str, rng, label: str) -> Tuple[str, str, object]:
    """One request template: ``(kind, method-path, body)``."""
    if kind == "sweep_hit":
        return kind, "POST /v1/sweep", _sweep_body(
            rng.choice(sorted(CACHES)), "hit")
    if kind == "sweep_batch":
        # A name no other request uses: misses the response cache, goes
        # through the batch window, hits the table cache.
        return kind, "POST /v1/sweep", _sweep_body(
            rng.choice(sorted(CACHES)), label)
    if kind.startswith("amat"):
        l1, l2 = rng.choice(AMAT_SIZES)
        body = {"workload": WARM, "l1_size_kb": l1, "l2_size_kb": l2}
        if kind == "amat_nonref":
            body.update(l1_assoc=4, l2_assoc=16)
        return kind, "POST /v1/amat", body
    if kind.startswith("optimize"):
        cache = rng.choice(sorted(CACHES))
        return kind, "POST /v1/optimize", {
            "cache": dict(CACHES[cache], name=cache),
            "scheme": int(kind[-1]),
            "target_ps": rng.choice(TARGETS_PS[cache]),
        }
    if kind == "jobs":
        return kind, "POST /v1/calibrate", dict(rng.choice(CALIBRATIONS))
    if kind == "campaign":
        index = rng.randrange(len(CAMPAIGNS))
        return kind, "POST /v1/campaigns", dict(
            CAMPAIGNS[index], name=f"{label}-c{index}")
    return kind, "GET /metrics", None


def op_sequence(seed: int, connection: int, count: int) -> List[tuple]:
    """The seeded op list of one connection."""
    rng = seeded_rng(seed, "serve", connection)
    kinds = balanced_blocks(
        rng, [kind for kind, share in MIX.items() for _ in range(share)],
        count)
    return [make_op(kind, rng, f"s{seed}-c{connection}-{index}")
            for index, kind in enumerate(kinds)]


def warmup_templates(label: str = "warm") -> List[tuple]:
    """Every distinct request template of the mix, once; ``label``
    names the sweeps that must miss the response cache and the
    campaigns."""
    ops = []
    for cache in sorted(CACHES):
        ops.append(("sweep_hit", "POST /v1/sweep", _sweep_body(cache, "hit")))
        ops.append(("sweep_batch", "POST /v1/sweep",
                    _sweep_body(cache, label)))
        for scheme in (1, 2, 3):
            for target in TARGETS_PS[cache]:
                ops.append((f"optimize_{scheme}", "POST /v1/optimize", {
                    "cache": dict(CACHES[cache], name=cache),
                    "scheme": scheme, "target_ps": target}))
    for l1, l2 in AMAT_SIZES:
        body = {"workload": WARM, "l1_size_kb": l1, "l2_size_kb": l2}
        ops.append(("amat_ref", "POST /v1/amat", body))
        ops.append(("amat_nonref", "POST /v1/amat",
                    dict(body, l1_assoc=4, l2_assoc=16)))
    ops += [("jobs", "POST /v1/calibrate", dict(body))
            for body in CALIBRATIONS]
    ops += [("campaign", "POST /v1/campaigns",
             dict(spec, name=f"{label}-{i}"))
            for i, spec in enumerate(CAMPAIGNS)]
    ops.append(("metrics", "GET /metrics", None))
    return ops


def template_key(op) -> str:
    """The template an op was made from: its kind and body, without the
    names that only make a request distinct."""
    kind, _, body = op
    if kind == "sweep_batch":
        body = dict(body, cache=dict(body["cache"], name=None))
    elif kind == "campaign":
        body = {key: value for key, value in body.items() if key != "name"}
    return json.dumps([kind, body], sort_keys=True)


def execute(client, op) -> object:
    """Send one op; returns the payload the output check compares."""
    kind, route, body = op
    method, path = route.split(" ")
    if kind == "jobs":
        submitted = client.request(method, path, body)
        if submitted.get("status") != "done":
            raise RuntimeError(f"calibration not served warm: {submitted}")
        job = client.job(submitted["job_id"])
        if job.get("status") != "done":
            raise RuntimeError(f"job not done: {job.get('status')}")
        return job["result"]
    if kind == "campaign":
        submitted = client.request(method, path, body)
        if submitted.get("status") == "done":
            final = client.campaign(submitted["campaign_id"])
        else:
            final = client.wait_for_campaign(submitted["campaign_id"],
                                             timeout=60.0)
        if final.get("status") != "done":
            raise RuntimeError(f"campaign not done: {final.get('status')}")
        return final.get("results")
    return client.request(method, path, body)


class Daemon:
    """One ``repro serve`` process with its own cache directory."""

    def __init__(self, trace: bool) -> None:
        from perfbench.run import child_environment

        SCRATCH.mkdir(exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="serve-", dir=SCRATCH)
        self.port_file = str(Path(self.directory) / "port")
        self.spans_file = str(Path(self.directory) / "spans.json")
        arguments = ["serve", "--port", "0", "--port-file", self.port_file,
                     "--cache-dir", str(Path(self.directory) / "cache"),
                     "--warm-profiles", WARM]
        if trace:
            command = [sys.executable, str(ROOT / "perfbench" / "daemon.py"),
                       "--spans", self.spans_file, "--"] + arguments
        else:
            command = [sys.executable, "-m", "repro"] + arguments
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=child_environment(),
            stdout=subprocess.DEVNULL)
        self.port: Optional[int] = None

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_ready(self, timeout: float = 60.0):
        """Block until the daemon listens and its profile is warm."""
        from repro.service.client import ServiceClient

        deadline = time.perf_counter() + timeout
        while self.port is None:
            if self.process.poll() is not None:
                raise RuntimeError("serve daemon exited during start-up")
            if time.perf_counter() > deadline:
                raise RuntimeError("serve daemon did not start listening")
            try:
                self.port = int(Path(self.port_file).read_text().strip())
            except (FileNotFoundError, ValueError):
                time.sleep(0.005)
        client = ServiceClient(port=self.port, timeout=30.0)
        while True:
            state = client.healthz().get("profile_store", {})
            verdicts = state.get("warm_profiles", {})
            if not state.get("warming", True):
                if verdicts != {WARM: "warm"}:
                    raise RuntimeError(f"profile warm-up failed: {verdicts}")
                return client
            if time.perf_counter() > deadline:
                raise RuntimeError("serve daemon never finished warming")
            time.sleep(0.005)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()

    def remove(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)


#: /metrics readings whose growth per request does not depend on thread
#: timing.  Table-cache hits and sweep batches are left out: concurrent
#: sweeps of one structure share a batch and its one table lookup.
GATE_COUNTERS = (
    "sweep.evaluate_grid_calls", "sweep.response_cache_hits",
    "calibrate.profile_store_hits", "campaigns.checkpoint_hits",
    "campaigns.units_done", "campaigns.completed", "table_misses",
    "store_computes", "store_serves",
)


def counters(snapshot: dict) -> Dict[str, float]:
    """The /metrics readings the benchmark uses, flattened."""
    counts = dict(snapshot.get("counters", {}))
    gauges = snapshot.get("gauges", {})
    table = gauges.get("table_cache", {})
    disk = gauges.get("disk_cache", {})
    store = gauges.get("profile_store", {})
    counts.update({
        "table_hits": table.get("hits", 0),
        "table_misses": table.get("misses", 0),
        "disk_hits": disk.get("hits", 0),
        "disk_misses": disk.get("misses", 0),
        "store_computes": store.get("misses", 0),
        "store_serves": store.get("hits", 0) + store.get("disk_hits", 0),
    })
    return counts


def _gate_counts(client) -> Dict[str, float]:
    snapshot = counters(client.metrics())
    return {name: snapshot.get(name, 0) for name in GATE_COUNTERS}


def set_up(trace: bool):
    """Spawn, wait warm, run the warm-up passes; returns what it measured.

    The first pass makes every template of the mix warm.  The second
    sends every template again, one at a time with fresh names where the
    timed phase uses them, and records how far each moves the gate
    counters: what the timed phase's ops must add up to.
    """
    started = time.perf_counter()
    daemon = Daemon(trace)
    try:
        client = daemon.wait_ready()
        warm_results, increments = {}, {}
        for op in warmup_templates():
            payload = execute(client, op)
            if op[0] == "campaign":
                warm_results[template_key(op)] = payload
        for op in warmup_templates("again"):
            before = _gate_counts(client)
            payload = execute(client, op)
            after = _gate_counts(client)
            increments[template_key(op)] = {
                name: after[name] - before[name] for name in GATE_COUNTERS}
            if op[0] == "campaign" and \
                    warm_results[template_key(op)] != payload:
                raise RuntimeError("a campaign served from checkpoints "
                                   "differs from its first run")
        elapsed = time.perf_counter() - started
        snapshot = counters(client.metrics())
    except BaseException:
        daemon.stop()
        daemon.remove()
        raise
    gate = {name: snapshot.get(name, 0) for name in GATE_COUNTERS
            + ("table_hits", "sweep.batches")}
    return daemon, client, elapsed, (gate, increments), warm_results


def expected_counts(records, increments) -> Dict[str, float]:
    """Gate-counter growth the completed ops must add up to."""
    expected = dict.fromkeys(GATE_COUNTERS, 0)
    for op, _, _, error, _ in records:
        if error is None:
            for name, value in increments[template_key(op)].items():
                expected[name] += value
    return expected


def load(client_factory, seed: int, seconds: float, paced: bool = False):
    """Closed loop on ``CONNECTIONS`` threads; returns per-op records.

    With ``paced``, every :data:`PACE_EVERY` seconds both connections
    stop between ops while the main thread runs one :func:`pace` pass
    on the otherwise idle host; the window then holds the
    ``(time, ms)`` of each pass, one just before the loop starts and
    one just after it ends included.
    """
    # Far more ops than a run can finish; the deadline ends the loop.
    count = int(2000 * seconds) + 1000
    sequences = [op_sequence(seed, c, count) for c in range(CONNECTIONS)]
    records: List[list] = [[] for _ in range(CONNECTIONS)]
    start_barrier = threading.Barrier(CONNECTIONS + 1)
    pause = threading.Barrier(CONNECTIONS + 1, timeout=90.0)
    window = {"paces": []}

    def worker(connection: int) -> None:
        client = client_factory()
        out = records[connection]
        start_barrier.wait()
        deadline = window["deadline"]
        for index, op in enumerate(sequences[connection]):
            began = time.perf_counter()
            if began >= window["pause_at"]:
                pause.wait()  # the main thread paces the host
                pause.wait()
                began = time.perf_counter()
            if began >= deadline:
                break
            try:
                payload, error = execute(client, op), None
            except Exception as failure:  # noqa: BLE001 - counted as failed
                payload, error = None, f"{type(failure).__name__}: {failure}"
            ended = time.perf_counter()
            keep = payload if index % CHECK_EVERY == connection else None
            out.append((op, began, ended, error, keep))
        client.close()

    def paced_pass() -> None:
        window["paces"].append((time.perf_counter(), pace()))

    threads = [threading.Thread(target=worker, args=(c,), daemon=True)
               for c in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    if paced:
        paced_pass()
    window["started"] = time.perf_counter()
    window["deadline"] = window["started"] + seconds
    # Pauses fall only before the deadline, so every worker reaches each.
    window["pause_at"] = (window["started"] + PACE_EVERY if paced
                          else float("inf"))
    start_barrier.wait()
    try:
        while window["pause_at"] < window["deadline"]:
            time.sleep(max(0.0, window["pause_at"] - time.perf_counter()))
            pause.wait()
            paced_pass()
            window["pause_at"] += PACE_EVERY
            if window["pause_at"] >= window["deadline"]:
                window["pause_at"] = float("inf")
            pause.wait()
    except threading.BrokenBarrierError:
        raise RuntimeError("a load connection stopped before a pace pause")
    for thread in threads:
        thread.join(timeout=seconds + 90.0)
        if thread.is_alive():
            raise RuntimeError("a load connection did not finish")
    window["ended"] = time.perf_counter()
    if window["ended"] < window["deadline"]:
        raise RuntimeError("the serve op sequence ran dry before the deadline")
    if paced:
        paced_pass()
    return [record for lane in records for record in lane], window


class LibraryOracle:
    """The same answers computed in-process through the library."""

    def __init__(self) -> None:
        from repro.perf import clear_cache

        # In-process tables must not be the daemon's: separate process,
        # and a clean table cache here.
        clear_cache()
        SCRATCH.mkdir(exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="oracle-", dir=SCRATCH)
        self._memo: Dict[str, object] = {}

    def close(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)

    def expected(self, op) -> object:
        kind, _, body = op
        route = ROUTE[kind]
        if route == "sweep":
            # Sweeps differ only by the echoed cache name: compute once
            # per structure, then echo this request's name.
            name = body["cache"]["name"]
            body = dict(body, cache=dict(body["cache"], name="oracle"))
        key = json.dumps([route, body], sort_keys=True)
        if key not in self._memo:
            self._memo[key] = getattr(self, "_" + route)(body)
        if route == "sweep":
            return dict(self._memo[key], cache=name)
        return self._memo[key]

    @staticmethod
    def _config(raw: dict):
        from repro.cache.config import CacheConfig

        return CacheConfig(size_bytes=int(raw["size_kb"] * 1024),
                           block_bytes=raw["block_bytes"],
                           associativity=raw["associativity"],
                           output_bits=raw["output_bits"], name=raw["name"])

    def _sweep(self, body):
        from repro import units
        from repro.cache.cache_model import CacheModel
        from repro.optimize.single_cache import component_tables
        from repro.optimize.space import DesignSpace
        from repro.technology.nodes import node_technology

        technology = node_technology(65, "itrs")
        model = CacheModel(self._config(body["cache"]), technology=technology)
        space = DesignSpace.for_technology(technology, body["vth"],
                                           body["tox"])
        tables = component_tables(model, space, use_cache=False)
        shape = (len(body["vth"]), len(body["tox"]))
        return {
            "cache": body["cache"]["name"], "node": 65,
            "scaling_style": "itrs", "vth": body["vth"],
            "tox_angstrom": body["tox"],
            "components": {
                name: {
                    "delay_ps": units.to_ps(table.delays).reshape(shape)
                    .tolist(),
                    "leakage_mw": units.to_mw(table.leakages).reshape(shape)
                    .tolist(),
                    "energy_pj": units.to_pj(table.energies).reshape(shape)
                    .tolist(),
                }
                for name, table in tables.items()
            },
        }

    def _amat(self, body):
        from repro import units
        from repro.archsim.amat import amat_two_level
        from repro.archsim.missmodel import (
            calibrated_miss_model,
            calibrated_miss_surface,
        )
        from repro.cache.cache_model import CacheModel
        from repro.cache.config import l1_config, l2_config
        from repro.energy.dynamic import MainMemoryModel
        from repro.optimize.two_level import default_l1_knobs, default_l2_knobs
        from repro.technology.nodes import node_technology

        technology = node_technology(65, "itrs")
        l1_assoc = body.get("l1_assoc", 2)
        l2_assoc = body.get("l2_assoc", 8)
        if "l1_assoc" in body:
            miss = calibrated_miss_surface(WARM, "lru",
                                           cache_dir=self.directory)
        else:
            miss = calibrated_miss_model(WARM, "lru")
        l1 = CacheModel(l1_config(body["l1_size_kb"], associativity=l1_assoc),
                        technology=technology)
        l2 = CacheModel(l2_config(body["l2_size_kb"], associativity=l2_assoc),
                        technology=technology)
        l1_eval = l1.uniform(default_l1_knobs(technology))
        l2_eval = l2.uniform(default_l2_knobs(technology))
        memory = MainMemoryModel()
        m1 = miss.l1_miss_rate(l1.config.size_bytes,
                               associativity=body.get("l1_assoc"))
        m2 = miss.l2_local_miss_rate(l2.config.size_bytes,
                                     associativity=body.get("l2_assoc"))
        amat = amat_two_level(l1_eval.access_time, m1, l2_eval.access_time,
                              m2, memory.latency)
        energy = l1_eval.dynamic_read_energy + m1 * (
            l2_eval.dynamic_read_energy + m2 * memory.energy_per_access)
        return {
            "amat_ps": units.to_ps(amat),
            "energy_per_access_pj": units.to_pj(energy),
            "total_leakage_mw": units.to_mw(
                l1_eval.leakage_power + l2_eval.leakage_power),
            "l1_miss_rate": m1, "l2_local_miss_rate": m2,
        }

    def _optimize(self, body):
        from repro import units
        from repro.cache.cache_model import CacheModel
        from repro.optimize.schemes import Scheme
        from repro.optimize.single_cache import minimize_leakage
        from repro.technology.nodes import node_technology

        scheme = {1: Scheme.PER_COMPONENT, 2: Scheme.CELL_VS_PERIPHERY,
                  3: Scheme.UNIFORM}[body["scheme"]]
        model = CacheModel(self._config(body["cache"]),
                           technology=node_technology(65, "itrs"))
        result = minimize_leakage(model, scheme, body["target_ps"] * 1e-12)
        return {
            "scheme": result.scheme.paper_name,
            "access_ps": units.to_ps(result.access_time),
            "leakage_mw": units.to_mw(result.leakage_power),
            "assignment": {
                name: {"vth": point.vth, "tox_angstrom": point.tox_angstrom}
                for name, point in result.assignment.components()
            },
        }

    def _jobs(self, body):
        from repro.archsim.missmodel import measure_miss_model
        from repro.archsim.workloads import STANDARD_WORKLOADS

        grids = {key: tuple(body[key]) for key in ("l1_grid_kb", "l2_grid_kb")
                 if key in body}
        model = measure_miss_model(
            STANDARD_WORKLOADS[body["workload"]],
            cache_dir=self.directory, use_disk_cache=False,
            l1_assocs=body.get("l1_assocs"),
            l2_assocs=body.get("l2_assocs"), **grids)
        expected = {
            "l1_curve": [list(point) for point in model.l1_curve],
            "l2_curve": [list(point) for point in model.l2_curve],
        }
        for level in ("l1", "l2"):
            curves = getattr(model, f"{level}_assoc_curves")
            if curves:
                expected[f"{level}_assoc_curves"] = [
                    [assoc, [list(point) for point in curve]]
                    for assoc, curve in curves]
        return expected

    def check(self, op, payload) -> Optional[str]:
        kind = op[0]
        expected = self.expected(op)
        if ROUTE[kind] == "amat":
            got = {key: payload[key] for key in
                   ("amat_ps", "energy_per_access_pj", "total_leakage_mw")}
            got["l1_miss_rate"] = payload["l1"]["miss_rate"]
            got["l2_local_miss_rate"] = payload["l2"]["local_miss_rate"]
        elif ROUTE[kind] == "optimize":
            got = {key: payload[key] for key in expected}
        elif ROUTE[kind] == "jobs":
            got = {key: payload[key] for key in payload if key in expected}
        else:
            got = payload
        if not nested_close(got, expected):
            return f"{kind} payload differs from the in-process library call"
        return None


def check_outputs(records, warm_results) -> List[str]:
    """Errors and payload mismatches, one line per failed op."""
    failures = []
    oracle = None
    try:
        for op, _, _, error, payload in records:
            kind = op[0]
            if error is None and payload is not None:
                if kind == "campaign":
                    if payload != warm_results.get(template_key(op)):
                        error = "campaign results differ from the warm-up run"
                elif kind != "metrics":
                    if oracle is None:
                        oracle = LibraryOracle()
                    error = oracle.check(op, payload)
            if error is not None:
                failures.append(f"{kind}: {error}")
    finally:
        if oracle is not None:
            oracle.close()
    return failures


def route_figures(records, paces=None) -> Dict[str, float]:
    """Per route, the geometric mean of its kinds' median latencies (ms).

    Each kind is one cost cluster (a sweep answered from the response
    cache costs a tenth of a batched one), so a kind's median stays in
    its cluster, where a median over the route's mixed kinds would jump
    between clusters with the draw.  For a route of one kind this is
    its plain median.
    """
    kinds = serve_kind_medians(records, paces)
    return {
        route: geometric_mean([kinds[kind] for kind in members])
        for route, members in KINDS.items()
        if all(kind in kinds for kind in members)
    }


def serve_kind_medians(records, paces=None) -> Dict[str, float]:
    """Median client latency (ms) of each op kind's successful ops.

    With ``paces`` (the ``(time, ms)`` pace passes of a paced run), each
    latency is first normalised to host speed: scaled by
    the nominal pass over the mean of the last pass before the op and
    the first pass after it (:func:`perfbench.common.normalised`).
    """
    times = [moment for moment, _ in paces or ()]
    done = []
    for op, began, ended, error, _ in records:
        if error is not None:
            continue
        latency = 1000.0 * (ended - began)
        if paces:
            before = paces[max(bisect.bisect_right(times, began) - 1, 0)][1]
            after = paces[min(bisect.bisect_left(times, ended),
                              len(paces) - 1)][1]
            latency = normalised([latency], [before, after])[0]
        done.append((op[0], latency))
    return kind_medians([kind for kind, _ in done],
                        [latency for _, latency in done])


def _measure(seed: int, seconds: float, trace: bool, setups: int,
             paced: bool = False):
    """Set up ``setups`` daemons, load the last one, check, tear down."""
    from repro.service.client import ServiceClient

    setup_times, gates = [], []
    # One pace pass before each set-up and one after the last.
    setup_paces = [pace()] if paced else []
    daemon = None
    try:
        for _ in range(setups):
            if daemon is not None:
                client.close()
                daemon.stop()
                daemon.remove()
            daemon, client, elapsed, gate, warm_results = set_up(trace)
            setup_times.append(elapsed)
            gates.append(gate)
            if paced:
                setup_paces.append(pace())
        # Sequential warm-up passes count the same on every daemon.
        if any(gate != gates[0] for gate in gates):
            raise GateError(f"warm-up counters differ between daemons: "
                            f"{gates}")
        increments = gates[-1][1]
        probe_before = host_probe()
        before = counters(client.metrics())
        cpu_before = cpu_seconds(daemon.pid)
        records, window = load(
            lambda: ServiceClient(port=daemon.port, timeout=60.0),
            seed, seconds, paced)
        cpu_after = cpu_seconds(daemon.pid)
        rss = peak_rss_mb(daemon.pid)
        after = counters(client.metrics())
        probe_after = host_probe()
        client.close()
        daemon.stop()
        spans = None
        if trace:
            from perfbench.spans import load as load_spans

            spans = load_spans(daemon.spans_file)
    finally:
        if daemon is not None:
            daemon.stop()
            daemon.remove()
    grown = {name: after.get(name, 0) - before.get(name, 0)
             for name in GATE_COUNTERS}
    # The timed phase's ops must move the counters by exactly what the
    # same templates moved them by one at a time.  Failed requests may
    # stop part-way, so the gate needs every op to have succeeded.
    if all(error is None for _, _, _, error, _ in records):
        expected = expected_counts(records, increments)
        if grown != expected:
            raise GateError(f"timed-phase counters {grown} differ from the "
                            f"sum over its ops {expected}")
    failures = check_outputs(records, warm_results)
    return {
        "counters": grown,
        "setup_times": setup_times, "setup_paces": setup_paces,
        "records": records,
        "window": window, "rss": rss, "cpu": cpu_after - cpu_before,
        "before": before, "after": after, "spans": spans,
        "probe_ms": [probe_before, probe_after], "failures": failures,
    }


def _http_requests(records) -> int:
    return sum(2 if op[0] in ("jobs", "campaign") else 1
               for op, *_ in records)


def _figures(measured) -> dict:
    records = measured["records"]
    window = measured["window"]
    wall = window["ended"] - window["started"]
    paces = window["paces"]
    return {
        "wall": wall,
        "ops_per_s": len(records) / wall,
        "typical_ops_per_s": typical_rate(
            serve_kind_medians(records, paces), MIX, CONNECTIONS),
        "raw_ops_per_s": typical_rate(serve_kind_medians(records), MIX,
                                      CONNECTIONS),
        "route_medians": route_figures(records, paces),
        "raw_route_medians": route_figures(records),
        "pace_ms": median([ms for _, ms in paces]) if paces else None,
        "latencies": [1000.0 * (ended - began)
                      for _, began, ended, error, _ in records
                      if error is None],
    }


def timed_run(seed: int, seconds: float) -> dict:
    measured = _measure(seed, seconds, trace=False, setups=SETUP_SAMPLES,
                        paced=True)
    figures = _figures(measured)
    medians = figures["route_medians"]
    extra = [(f"{route}_p50_ms", medians.get(route, float("nan")), "ms")
             for route in KINDS]
    extra += [
        ("raw_setup_s", median(measured["setup_times"]), "s"),
        ("raw_ops_per_s", figures["raw_ops_per_s"], "1/s"),
        ("raw_op_p50_ms", geometric_mean(
            [figures["raw_route_medians"][route] for route in KINDS]), "ms"),
        ("wall_ops_per_s", figures["ops_per_s"], "1/s"),
        ("pace_ms", figures["pace_ms"], "ms"),
    ]
    extra.append(("daemon_cpu_ms_per_req",
                  1000.0 * measured["cpu"]
                  / _http_requests(measured["records"]), "ms"))
    return {
        "figures": {
            "setup_s": median(normalised(measured["setup_times"],
                                         measured["setup_paces"])),
            "ops_per_s": figures["typical_ops_per_s"],
            # Every route weighs the same, as in the mix.
            "op_p50_ms": geometric_mean([medians[route] for route in KINDS]),
            "peak_rss_mb": measured["rss"],
        },
        "extra": extra,
        "latencies_ms": figures["latencies"],
        "attempted": len(measured["records"]),
        "failures": measured["failures"],
        "probe_ms": measured["probe_ms"],
        "counters": ("timed phase", measured["counters"]),
    }


def trace_run(seed: int, seconds: float) -> dict:
    plain = _measure(seed, seconds, trace=False, setups=1)
    traced = _measure(seed, seconds, trace=True, setups=1)
    plain_figures = _figures(plain)
    figures = _figures(traced)
    records = traced["records"]
    window = traced["window"]
    n_ops = len(records)
    spans = [span for span in traced["spans"]
             if window["started"] <= span.start <= window["ended"]]
    metrics = layers.zero_metrics()
    metrics.update(layers.library_metrics(spans, n_ops))
    metrics.update(layers.counter_metrics(traced["before"], traced["after"],
                                          n_ops))
    delta = {key: traced["after"].get(key, 0) - traced["before"].get(key, 0)
             for key in traced["after"]}
    metrics["service.sweep_response_cache_hits"] = delta.get(
        "sweep.response_cache_hits", 0) / n_ops
    metrics["service.sweep_batches"] = delta.get("sweep.batches", 0) / n_ops
    metrics["campaign.checkpoint_hits"] = delta.get(
        "campaigns.checkpoint_hits", 0) / n_ops
    metrics["campaign.units_done"] = delta.get(
        "campaigns.units_done", 0) / n_ops
    metrics["campaign.plan_ms"] = 1000.0 * sum(
        span.duration for span in spans if span.name == "campaign.plan") / n_ops
    metrics["service.daemon_cpu_ms_per_req"] = (
        1000.0 * traced["cpu"] / _http_requests(records))

    handle: Dict[str, float] = {}
    for span in spans:
        if span.name == "service.handle":
            handle[span.tag] = handle.get(span.tag, 0.0) + span.duration
    client_time: Dict[str, float] = {}
    client_ops: Dict[str, int] = {}
    for op, began, ended, _, _ in records:
        route = ROUTE[op[0]]
        client_time[route] = client_time.get(route, 0.0) + ended - began
        client_ops[route] = client_ops.get(route, 0) + 1
    for route in KINDS:
        count = client_ops.get(route, 0)
        if count:
            metrics[f"service.handle_ms.{route}"] = (
                1000.0 * handle.get(route, 0.0) / count)
            metrics[f"service.transport_ms.{route}"] = 1000.0 * (
                client_time[route] - handle.get(route, 0.0)) / count
    batches = [span for span in spans if span.name == "service.batch"]
    if batches:
        from perfbench.spans import self_times

        selves = self_times(spans)
        metrics["service.batch_wait_ms"] = 1000.0 * sum(
            selves[id(span)] for span in batches) / len(batches)

    for route, value in figures["route_medians"].items():
        if f"serve.{route}_p50_ms" in metrics:
            metrics[f"serve.{route}_p50_ms"] = value
    cut = tail(figures["latencies"])
    if cut is not None:
        metrics["serve.op_tail_ms"], metrics["serve.op_tail_pct"], \
            metrics["serve.op_tail_n"] = cut
    failures = plain["failures"] + traced["failures"]
    metrics["fail_frac"] = len(failures) / (
        len(plain["records"]) + n_ops)
    metrics["host.probe_ms"] = median(traced["probe_ms"])
    metrics["trace.overhead_frac"] = (
        plain_figures["ops_per_s"] / figures["ops_per_s"] - 1.0)
    # Share of the client's op time the daemon spent handling them.
    metrics["trace.coverage_frac"] = sum(handle.values()) / sum(
        client_time.values())
    return {
        "metrics": metrics,
        "attempted": len(plain["records"]) + n_ops,
        "failures": failures,
        "counters": ("timed phase", traced["counters"]),
    }
