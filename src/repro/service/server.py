"""The batched sweep/calibration daemon: ``python -m repro serve``.

A stdlib-only (``http.server`` + ``json``) long-running process that
amortises the library's expensive state across requests: the component
evaluation-table cache, the calibration disk cache, and the constructed
:class:`~repro.cache.cache_model.CacheModel` objects all live for the
process lifetime and are shared — thread-safely — by every request.

Endpoints (see ``docs/SERVICE.md`` for the full reference):

========================  ====================================================
``GET  /healthz``         liveness + uptime
``GET  /metrics``         counters / gauges / latency histograms (JSON)
``POST /v1/sweep``        leakage/delay/energy grids, batched + coalesced
``POST /v1/optimize``     Section 4 assignment optimisation for a scheme
``POST /v1/amat``         two-level AMAT/energy against calibrated miss models
``POST /v1/calibrate``    async trace-driven calibration -> job id
``GET  /v1/jobs/<id>``    job status / result (``?wait=<s>`` long-polls)
``DELETE /v1/jobs/<id>``  cancel a job
``POST /v1/campaigns``    declarative DSE campaign -> campaign id
``GET  /v1/campaigns/<id>``  progress + results (``?wait=``, ``?results=0``)
``DELETE /v1/campaigns/<id>``  cancel a campaign and its child jobs
========================  ====================================================

Every request runs on its own thread (``ThreadingHTTPServer``); errors
are answered with the structured envelope from
:func:`repro.service.schemas.error_envelope` and can never take the
daemon down.  SIGTERM/SIGINT shut the listener down gracefully and drain
or cancel in-flight calibration jobs before the process exits.
"""

from __future__ import annotations

import json
import os
import signal
import socket as socket_module
import sys
import threading
import time
import urllib.parse
from collections import OrderedDict
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Sequence, Tuple

from repro import units
from repro.errors import (
    InfeasibleConstraintError,
    ReproError,
    ServiceUnavailableError,
    ValidationError,
)
from repro.archsim.amat import amat_two_level
from repro.archsim.missmodel import (
    REFERENCE_L1_ASSOC,
    REFERENCE_L2_ASSOC,
    TABLE_CALIBRATION_ACCESSES,
    MissRateModel,
    blended_miss_model,
    calibrated_miss_model,
    calibrated_miss_surface,
    measure_miss_model,
    peek_miss_model,
)
from repro.archsim.workloads import WorkloadSpec, standard_workload
from repro.cache.cache_model import CacheModel
from repro.campaign.runner import CampaignManager
from repro.cache.config import CacheConfig
from repro.energy.dynamic import MainMemoryModel
from repro.optimize.single_cache import minimize_leakage
from repro.optimize.space import DesignSpace
from repro.perf import cache_info, disk_cache_info, profile_store_info
from repro.perf.profile_store import get_store
from repro.technology.nodes import node_technology

from repro.service import schemas
from repro.service.batching import SweepBatcher, slice_grid
from repro.service.cluster import WorkerMetricsBoard, cluster_view
from repro.service.jobs import JobManager
from repro.service.metrics import MetricsRegistry

#: Largest request body the daemon will read (bytes).
MAX_BODY_BYTES = 2 * 1024 * 1024

#: Oversized bodies up to this size are read and discarded so the client
#: receives its 413 on an intact connection; anything larger gets the
#: connection dropped instead of a multi-gigabyte drain.
MAX_DRAIN_BYTES = 16 * 1024 * 1024


@dataclass(frozen=True)
class ServiceConfig:
    """Everything tunable about one daemon instance."""

    host: str = "127.0.0.1"
    port: int = 8023
    batch_window_seconds: float = 0.005
    job_workers: int = 2
    job_queue: int = 16
    job_timeout_seconds: float = 600.0
    cache_dir: Optional[str] = None
    quiet: bool = True
    #: Stable label for this worker in a multi-worker deployment (set by
    #: the supervisor, e.g. ``"w0"``); ``None`` means single-process.
    worker_id: Optional[str] = None
    #: Identical repeated ``POST /v1/sweep`` bodies are answered from an
    #: in-memory LRU of finished 200 responses of this many entries
    #: (0 disables).  Metrics still count every request.
    sweep_cache_entries: int = 256
    #: Cadence at which a worker publishes its metrics snapshot to the
    #: shared cluster board (only when ``worker_id`` is set).
    metrics_flush_seconds: float = 0.25
    #: Workload names whose dense profile surfaces a background thread
    #: computes at startup, so the first /v1/calibrate and /v1/amat for
    #: them is already a warm slice.
    warm_profiles: Tuple[str, ...] = ()
    #: Ceiling on the units one campaign may expand to (per-instance
    #: tightening of :data:`repro.service.schemas.MAX_CAMPAIGN_UNITS`).
    campaign_max_units: int = schemas.MAX_CAMPAIGN_UNITS
    #: Concurrent heavy campaign units in flight on the job pool.
    campaign_fanout: int = 4
    #: Extra attempts a failing campaign unit gets before it is failed.
    campaign_unit_retries: int = 1


def _calibration_result(
    model: MissRateModel,
    n_accesses: int,
    seed: int,
    policy: str,
) -> dict:
    """The /v1/calibrate result payload for one measured/served model."""
    result = {
        "workload": model.workload,
        "policy": policy,
        "n_accesses": n_accesses,
        "seed": seed,
        "l1_curve": [[size, rate] for size, rate in model.l1_curve],
        "l2_curve": [[size, rate] for size, rate in model.l2_curve],
    }
    if model.l1_assoc_curves:
        result["l1_assoc_curves"] = [
            [assoc, [[size, rate] for size, rate in curve]]
            for assoc, curve in model.l1_assoc_curves
        ]
    if model.l2_assoc_curves:
        result["l2_assoc_curves"] = [
            [assoc, [[size, rate] for size, rate in curve]]
            for assoc, curve in model.l2_assoc_curves
        ]
    return result


def _calibration_task(
    spec: WorkloadSpec,
    n_accesses: int,
    seed: int,
    policy: str,
    l1_grid_kb: Sequence[int],
    l2_grid_kb: Sequence[int],
    cache_dir: Optional[str],
    l1_assocs: Optional[Sequence[int]] = None,
    l2_assocs: Optional[Sequence[int]] = None,
) -> dict:
    """Run one calibration on a pool worker (module-level: picklable).

    ``profile_store="always"``: a store-eligible request computes the
    workload's whole dense surface in one pass and persists it to the
    shared disk tier, so the daemon answers every later sub-grid
    synchronously without touching this pool again.
    """
    model = measure_miss_model(
        spec,
        n_accesses=n_accesses,
        seed=seed,
        l1_grid_kb=l1_grid_kb,
        l2_grid_kb=l2_grid_kb,
        cache_dir=cache_dir,
        policy=policy,
        l1_assocs=l1_assocs,
        l2_assocs=l2_assocs,
        profile_store="always",
    )
    return _calibration_result(model, n_accesses, seed, policy)


def _grid_to_lists(grid) -> list:
    return [[float(value) for value in row] for row in grid]


class ReproService:
    """The transport-independent core: validated request -> response dict.

    The HTTP handler below is a thin shell over :meth:`handle`; tests can
    drive this object directly without opening a socket.
    """

    MAX_MODELS = 32

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.started_at = time.time()
        self.metrics = MetricsRegistry()
        self.batcher = SweepBatcher(
            self.metrics, window_seconds=config.batch_window_seconds
        )
        # The worker label every shared-store record carries; a
        # single-process daemon is a cluster of one.  The label must be
        # stable across restarts: a pid-derived id would leave one
        # metrics-board record per past incarnation, and the cluster
        # view's merged totals would double-count them forever.
        self.worker_label = (
            config.worker_id
            if config.worker_id is not None
            else "standalone"
        )
        self.jobs = JobManager(
            max_workers=config.job_workers,
            max_queue=config.job_queue,
            timeout_seconds=config.job_timeout_seconds,
            metrics=self.metrics,
            cache_dir=config.cache_dir,
            worker_id=self.worker_label,
        )
        # Finished /v1/sweep responses keyed by their canonicalised
        # request body: under multi-tenant load the same few grids are
        # requested over and over, and a hit skips parsing, table
        # slicing, and unit conversion entirely.
        self._sweep_cache: "OrderedDict[str, Tuple[int, dict]]" = (
            OrderedDict()
        )
        self._sweep_cache_lock = threading.Lock()
        self._metrics_board = WorkerMetricsBoard(config.cache_dir)
        self._flusher_stop = threading.Event()
        if config.worker_id is not None:
            # Workers push their snapshot to the shared board so any
            # sibling can answer /metrics?scope=cluster for the fleet.
            threading.Thread(
                target=self._flush_metrics,
                name="repro-metrics-flusher",
                daemon=True,
            ).start()
        self._models: "OrderedDict[str, CacheModel]" = OrderedDict()
        self._models_lock = threading.Lock()
        self.campaigns = CampaignManager(
            jobs=self.jobs,
            metrics=self.metrics,
            cache_dir=config.cache_dir,
            model_for=lambda cache_config, node=65, scaling_style="itrs":
                self._model_for(cache_config, node, scaling_style)[1],
            max_inflight=config.campaign_fanout,
            unit_retries=config.campaign_unit_retries,
            # The recovery hook: lets any worker re-parse a persisted
            # campaign spec and adopt an orphan under its original id.
            spec_parser=lambda body: schemas.parse_campaign(
                body, max_units=config.campaign_max_units
            ),
            worker_id=self.worker_label,
        )
        self.metrics.register_gauge(
            "uptime_seconds", lambda: time.time() - self.started_at
        )
        self.metrics.register_gauge(
            "table_cache", lambda: vars(cache_info())
        )
        self.metrics.register_gauge(
            "disk_cache", lambda: vars(disk_cache_info())
        )
        self.metrics.register_gauge(
            "profile_store", lambda: vars(profile_store_info())
        )
        self.metrics.register_gauge(
            "profile_store.warm_workloads",
            lambda: len(get_store(self.config.cache_dir).warm_workloads()),
        )
        for name in config.warm_profiles:
            try:
                standard_workload(name)
            except ReproError as error:
                raise ValidationError(f"warm_profiles: {error}") from None
        self._warm_lock = threading.Lock()
        self._warm_state: Dict[str, str] = {
            name: "pending" for name in config.warm_profiles
        }
        if config.warm_profiles:
            threading.Thread(
                target=self._warm_profiles,
                name="repro-profile-warmer",
                daemon=True,
            ).start()

    def _flush_metrics(self) -> None:
        """Periodically publish this worker's snapshot (worker mode)."""
        interval = max(0.05, self.config.metrics_flush_seconds)
        while not self._flusher_stop.wait(interval):
            self._metrics_board.publish(
                self.worker_label, self.metrics.snapshot()
            )

    def _warm_profiles(self) -> None:
        """Compute configured workloads' surfaces (background, startup).

        Both trace lengths a warm daemon serves from: the /v1/calibrate
        default (300 k accesses) and the committed-table provenance
        /v1/amat surfaces read (2 M).  Failures are recorded, never
        raised — a bad warm leaves the daemon serving cold.
        """
        store = get_store(self.config.cache_dir)
        for name in self.config.warm_profiles:
            try:
                for n_accesses in (300_000, TABLE_CALIBRATION_ACCESSES):
                    store.surface(
                        standard_workload(name),
                        policy="lru",
                        n_accesses=n_accesses,
                        seed=1,
                    )
                verdict = "warm"
            except Exception as error:  # noqa: BLE001 - warming is advisory
                verdict = f"failed: {type(error).__name__}: {error}"
            with self._warm_lock:
                self._warm_state[name] = verdict

    # -- shared model state ------------------------------------------------

    def _model_for(
        self,
        config: CacheConfig,
        node: int = 65,
        scaling_style: str = "itrs",
    ) -> Tuple[str, CacheModel]:
        """Return (structure key, shared CacheModel) for a validated config.

        The key deliberately excludes ``name`` so differently-labelled
        requests for the same structure share one model *and* one batch —
        but it *must* include the technology identity: the same geometry
        at two nodes is two different circuits, and sharing a model (or
        a batch) across nodes would serve one node's numbers for the
        other.
        """
        key = repr(
            (
                config.size_bytes,
                config.block_bytes,
                config.associativity,
                config.output_bits,
                node,
                scaling_style,
            )
        )
        with self._models_lock:
            model = self._models.get(key)
            if model is not None:
                self._models.move_to_end(key)
                return key, model
        # Build outside the lock (construction sizes the whole circuit
        # substrate); worst case two threads build and one wins.
        model = CacheModel(
            config, technology=node_technology(node, scaling_style)
        )
        with self._models_lock:
            incumbent = self._models.get(key)
            if incumbent is not None:
                return key, incumbent
            self._models[key] = model
            while len(self._models) > self.MAX_MODELS:
                self._models.popitem(last=False)
        return key, model

    # -- endpoint implementations ------------------------------------------

    def handle_sweep(self, body) -> Tuple[int, dict]:
        request = schemas.parse_sweep(body)
        key, model = self._model_for(
            request.config, request.node, request.scaling_style
        )
        tables, space = self.batcher.tables_for(
            key, model, request.vths, request.toxes_angstrom
        )
        components = {}
        for name in request.components:
            sliced = slice_grid(
                tables, space, request.vths, request.toxes_angstrom, name
            )
            components[name] = {
                "delay_ps": _grid_to_lists(units.to_ps(sliced["delay"])),
                "leakage_mw": _grid_to_lists(
                    units.to_mw(sliced["leakage"])
                ),
                "energy_pj": _grid_to_lists(units.to_pj(sliced["energy"])),
            }
        return 200, {
            "cache": request.config.name,
            "node": request.node,
            "scaling_style": request.scaling_style,
            "vth": list(request.vths),
            "tox_angstrom": list(request.toxes_angstrom),
            "components": components,
        }

    def handle_optimize(self, body) -> Tuple[int, dict]:
        request = schemas.parse_optimize(body)
        _, model = self._model_for(
            request.config, request.node, request.scaling_style
        )
        space = None
        if request.vths is not None:
            space = DesignSpace.for_technology(
                model.technology,
                vth_values=request.vths,
                tox_values_angstrom=request.toxes_angstrom,
            )
        result = minimize_leakage(
            model, request.scheme, request.max_access_time, space=space
        )
        return 200, {
            "cache": request.config.name,
            "node": request.node,
            "scaling_style": request.scaling_style,
            "scheme": result.scheme.paper_name,
            "target_ps": units.to_ps(request.max_access_time),
            "access_ps": units.to_ps(result.access_time),
            "slack_ps": units.to_ps(result.slack),
            "leakage_mw": units.to_mw(result.leakage_power),
            "assignment": {
                name: {"vth": point.vth,
                       "tox_angstrom": point.tox_angstrom}
                for name, point in result.assignment.components()
            },
        }

    def handle_amat(self, body) -> Tuple[int, dict]:
        request = schemas.parse_amat(body)
        l1_assoc = request.l1.associativity
        l2_assoc = request.l2.associativity
        # Non-reference shapes need the associativity-complete surface
        # models; reference requests keep the committed tables.
        need_surface = (
            l1_assoc != REFERENCE_L1_ASSOC or l2_assoc != REFERENCE_L2_ASSOC
        )
        if request.workload is not None:
            miss_model = (
                calibrated_miss_surface(
                    request.workload,
                    request.policy,
                    cache_dir=self.config.cache_dir,
                )
                if need_surface
                else calibrated_miss_model(request.workload, request.policy)
            )
        else:
            miss_model = blended_miss_model(
                dict(request.blend_weights),
                request.policy,
                surface=need_surface,
                cache_dir=self.config.cache_dir,
            )
        technology = node_technology(request.node, request.scaling_style)
        l1_model = CacheModel(request.l1, technology=technology)
        l2_model = CacheModel(request.l2, technology=technology)
        l1_eval = l1_model.uniform(request.l1_knobs)
        l2_eval = l2_model.uniform(request.l2_knobs)
        memory = (
            MainMemoryModel(latency=request.memory_latency)
            if request.memory_latency is not None
            else MainMemoryModel()
        )
        m1 = miss_model.l1_miss_rate(
            l1_model.config.size_bytes, associativity=request.l1_assoc
        )
        m2 = miss_model.l2_local_miss_rate(
            l2_model.config.size_bytes, associativity=request.l2_assoc
        )
        amat = amat_two_level(
            l1_eval.access_time, m1, l2_eval.access_time, m2, memory.latency
        )
        energy = l1_eval.dynamic_read_energy + m1 * (
            l2_eval.dynamic_read_energy + m2 * memory.energy_per_access
        )
        return 200, {
            "workload": miss_model.workload,
            "policy": request.policy,
            "node": request.node,
            "scaling_style": request.scaling_style,
            "amat_ps": units.to_ps(amat),
            "energy_per_access_pj": units.to_pj(energy),
            "total_leakage_mw": units.to_mw(
                l1_eval.leakage_power + l2_eval.leakage_power
            ),
            "memory_latency_ps": units.to_ps(memory.latency),
            "l1": {
                "size_kb": request.l1_size_kb,
                "associativity": l1_assoc,
                "access_ps": units.to_ps(l1_eval.access_time),
                "leakage_mw": units.to_mw(l1_eval.leakage_power),
                "miss_rate": m1,
            },
            "l2": {
                "size_kb": request.l2_size_kb,
                "associativity": l2_assoc,
                "access_ps": units.to_ps(l2_eval.access_time),
                "leakage_mw": units.to_mw(l2_eval.leakage_power),
                "local_miss_rate": m2,
            },
        }

    def handle_calibrate(self, body) -> Tuple[int, dict]:
        request = schemas.parse_calibrate(body)
        detail = {
            "workload": request.spec.name,
            "policy": request.policy,
        }
        # Serving tier first: an already-profiled workload (dense surface
        # resident, or the exact curves disk-cached) answers without a
        # single trace pass — the job is born done and the client's very
        # first poll (or this response) carries the result.
        model = peek_miss_model(
            request.spec,
            n_accesses=request.n_accesses,
            seed=request.seed,
            l1_grid_kb=request.l1_grid_kb,
            l2_grid_kb=request.l2_grid_kb,
            cache_dir=self.config.cache_dir,
            policy=request.policy,
            l1_assocs=request.l1_assocs,
            l2_assocs=request.l2_assocs,
        )
        if model is not None:
            self.metrics.increment("calibrate.profile_store_hits")
            result = _calibration_result(
                model, request.n_accesses, request.seed, request.policy
            )
            job_id = self.jobs.submit_completed(
                "calibrate",
                result,
                detail={**detail, "served_from": "profile_store"},
            )
            return 202, {
                "job_id": job_id,
                "status": "done",
                "poll": f"/v1/jobs/{job_id}",
            }
        self.metrics.increment("calibrate.profile_store_misses")
        job_id = self.jobs.submit(
            "calibrate",
            _calibration_task,
            request.spec,
            request.n_accesses,
            request.seed,
            request.policy,
            request.l1_grid_kb,
            request.l2_grid_kb,
            self.config.cache_dir,
            request.l1_assocs,
            request.l2_assocs,
            detail={**detail, "served_from": "engine"},
        )
        return 202, {
            "job_id": job_id,
            "status": "queued",
            "poll": f"/v1/jobs/{job_id}",
        }

    def handle_healthz(self) -> Tuple[int, dict]:
        payload = {
            "status": "ok",
            "uptime_seconds": time.time() - self.started_at,
        }
        if self.config.warm_profiles:
            with self._warm_lock:
                state = dict(self._warm_state)
            payload["profile_store"] = {
                "warm_profiles": state,
                "warming": any(v == "pending" for v in state.values()),
            }
        return 200, payload

    def handle_metrics(self, query: Optional[dict] = None) -> Tuple[int, dict]:
        scope = (query or {}).get("scope", ["self"])[-1]
        if scope == "cluster":
            # Publish ourselves first (fresh), then merge every worker's
            # published record into one fleet view.
            snapshot = self.metrics.snapshot()
            self._metrics_board.publish(self.worker_label, snapshot)
            return 200, cluster_view(
                self._metrics_board, self.worker_label, snapshot
            )
        if scope != "self":
            raise ValidationError(
                f"scope must be 'self' or 'cluster', got {scope!r}"
            )
        payload = self.metrics.snapshot()
        payload["worker_id"] = self.worker_label
        return 200, payload

    # -- sweep response cache ----------------------------------------------

    @staticmethod
    def _sweep_cache_key(body) -> Optional[str]:
        try:
            return json.dumps(body, sort_keys=True)
        except (TypeError, ValueError):
            return None

    def _cached_sweep(self, body) -> Tuple[Optional[str], Optional[dict]]:
        """Look one sweep body up in the response cache."""
        if self.config.sweep_cache_entries <= 0:
            return None, None
        key = self._sweep_cache_key(body)
        if key is None:
            return None, None
        with self._sweep_cache_lock:
            hit = self._sweep_cache.get(key)
            if hit is None:
                return key, None
            self._sweep_cache.move_to_end(key)
        self.metrics.increment("sweep.response_cache_hits")
        return key, hit

    def _remember_sweep(self, key: Optional[str],
                        status: int, payload: dict) -> None:
        if key is None or status != 200:
            return
        with self._sweep_cache_lock:
            self._sweep_cache[key] = (status, payload)
            self._sweep_cache.move_to_end(key)
            while len(self._sweep_cache) > self.config.sweep_cache_entries:
                self._sweep_cache.popitem(last=False)

    # -- dispatch ----------------------------------------------------------

    def handle_campaign_submit(self, body) -> Tuple[int, dict]:
        spec = schemas.parse_campaign(
            body, max_units=self.config.campaign_max_units
        )
        snapshot = self.campaigns.submit(spec, spec_body=body)
        return 202, snapshot

    def handle(self, method: str, path: str, body) -> Tuple[int, dict]:
        """Route one request; always returns (status, JSON-able payload)."""
        endpoint = "unknown"
        started = time.perf_counter()
        path, _, query_string = path.partition("?")
        query = urllib.parse.parse_qs(query_string) if query_string else {}
        try:
            if path == "/healthz" and method == "GET":
                endpoint = "healthz"
                return self.handle_healthz()
            if path == "/metrics" and method == "GET":
                endpoint = "metrics"
                return self.handle_metrics(query)
            if path == "/v1/sweep" and method == "POST":
                endpoint = "sweep"
                key, cached = self._cached_sweep(body)
                if cached is not None:
                    return cached
                status, payload = self.handle_sweep(body)
                self._remember_sweep(key, status, payload)
                return status, payload
            if path == "/v1/optimize" and method == "POST":
                endpoint = "optimize"
                return self.handle_optimize(body)
            if path == "/v1/amat" and method == "POST":
                endpoint = "amat"
                return self.handle_amat(body)
            if path == "/v1/calibrate" and method == "POST":
                endpoint = "calibrate"
                return self.handle_calibrate(body)
            if path == "/v1/campaigns" and method == "POST":
                endpoint = "campaigns"
                return self.handle_campaign_submit(body)
            if path.startswith("/v1/campaigns/"):
                endpoint = "campaigns"
                campaign_id = path[len("/v1/campaigns/"):]
                if method == "GET":
                    wait = schemas.parse_wait(query, "campaigns")
                    results = schemas.parse_flag(
                        query, "results", "campaigns"
                    )
                    if wait > 0:
                        return 200, self.campaigns.wait(
                            campaign_id, wait, include_results=results
                        )
                    return 200, self.campaigns.get(
                        campaign_id, include_results=results
                    )
                if method == "DELETE":
                    return 200, self.campaigns.cancel(campaign_id)
                raise ValidationError(
                    f"method {method} not allowed on {path}", status=405
                )
            if path.startswith("/v1/jobs/"):
                endpoint = "jobs"
                job_id = path[len("/v1/jobs/"):]
                if method == "GET":
                    wait = schemas.parse_wait(query, "jobs")
                    if wait > 0:
                        return 200, self.jobs.wait_for(job_id, wait)
                    return 200, self.jobs.get(job_id)
                if method == "DELETE":
                    return 200, self.jobs.cancel(job_id)
                raise ValidationError(
                    f"method {method} not allowed on {path}", status=405
                )
            known = (
                "/healthz", "/metrics", "/v1/sweep", "/v1/optimize",
                "/v1/amat", "/v1/calibrate", "/v1/campaigns",
            )
            if path in known:
                raise ValidationError(
                    f"method {method} not allowed on {path}", status=405
                )
            raise ValidationError(f"no such endpoint: {path}", status=404)
        except ValidationError as error:
            return self._error(endpoint, error.status, error)
        except InfeasibleConstraintError as error:
            status, payload = self._error(endpoint, 422, error)
            payload["error"]["best_achievable_ps"] = units.to_ps(
                error.best_achievable
            )
            return status, payload
        except ServiceUnavailableError as error:
            return self._error(endpoint, 503, error)
        except ReproError as error:
            return self._error(endpoint, 400, error)
        except Exception as error:  # noqa: BLE001 - the daemon must survive
            return self._error(endpoint, 500, error)
        finally:
            self.metrics.increment(f"requests.{endpoint}")
            self.metrics.observe(
                f"latency.{endpoint}_seconds",
                time.perf_counter() - started,
            )

    def _error(self, endpoint: str, status: int, error: BaseException):
        self.metrics.increment(f"errors.{status}")
        return status, schemas.error_envelope(
            type(error).__name__, str(error), status
        )

    def shutdown(self) -> dict:
        """Drain background work; returns the job-drain summary.

        Campaign coordinators stop first — they are the job submitters,
        so stopping them before the pool guarantees the drain below sees
        the final set of child jobs.
        """
        campaigns = self.campaigns.shutdown()
        summary = self.jobs.shutdown()
        summary["campaigns_cancelled"] = campaigns["cancelled"]
        self._flusher_stop.set()
        if self.config.worker_id is not None:
            # One final publish so the fleet view keeps this worker's
            # counters after it is gone (a drained worker's traffic
            # still happened).
            self._metrics_board.publish(
                self.worker_label, self.metrics.snapshot()
            )
        return summary


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP shell over :meth:`ReproService.handle`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-service/1.0"
    # Headers and body go out as separate writes; without TCP_NODELAY the
    # body write waits on the peer's delayed ACK (~40 ms per request).
    disable_nagle_algorithm = True

    @property
    def service(self) -> ReproService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.service.config.quiet:
            super().log_message(format, *args)

    def _respond(self, status: int, payload: dict) -> None:
        encoded = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)

    def _read_body(self):
        length = self.headers.get("Content-Length")
        try:
            length = int(length) if length is not None else 0
        except ValueError:
            raise ValidationError("Content-Length must be an integer")
        if length > MAX_BODY_BYTES:
            if length <= MAX_DRAIN_BYTES:
                # Drain so the client can finish sending and read the 413
                # instead of hitting a broken pipe mid-request.
                remaining = length
                while remaining > 0:
                    chunk = self.rfile.read(min(remaining, 65536))
                    if not chunk:
                        break
                    remaining -= len(chunk)
            else:
                self.close_connection = True
            raise ValidationError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
                status=413,
            )
        if length == 0:
            return None
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except ValueError as error:
            raise ValidationError(f"malformed JSON body: {error}")

    def _dispatch(self, method: str) -> None:
        try:
            body = self._read_body()
        except ValidationError as error:
            self.service.metrics.increment(f"errors.{error.status}")
            self._respond(
                error.status,
                schemas.error_envelope(
                    type(error).__name__, str(error), error.status
                ),
            )
            return
        status, payload = self.service.handle(method, self.path, body)
        self._respond(status, payload)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")


class ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the shared :class:`ReproService`.

    ``listen_socket`` lets a supervisor bind (and listen on) the socket
    once and hand each forked worker the inherited descriptor: the
    worker serves accepts off the shared socket — the kernel balances
    connections across workers — without ever binding itself.
    """

    daemon_threads = True

    def __init__(
        self,
        config: ServiceConfig,
        listen_socket: Optional[socket_module.socket] = None,
    ) -> None:
        self.service = ReproService(config)
        if listen_socket is None:
            super().__init__((config.host, config.port), _Handler)
            return
        super().__init__(
            (config.host, config.port), _Handler, bind_and_activate=False
        )
        # Replace the unbound socket the base class made with the
        # inherited, already-listening one; skip bind/activate entirely.
        # Non-blocking accept matters with siblings: when the selector
        # wakes several workers for one connection, the losers get
        # BlockingIOError (swallowed by socketserver) and return to
        # their poll loop instead of blocking inside accept().
        listen_socket.setblocking(False)
        self.socket.close()
        self.socket = listen_socket
        self.server_address = listen_socket.getsockname()
        host, port = self.server_address[:2]
        self.server_name = host
        self.server_port = port

    @property
    def bound_port(self) -> int:
        return self.server_address[1]


def create_server(
    config: Optional[ServiceConfig] = None,
    listen_socket: Optional[socket_module.socket] = None,
) -> ServiceHTTPServer:
    """Bind a server (``port=0`` picks an ephemeral port) without serving."""
    return ServiceHTTPServer(
        config if config is not None else ServiceConfig(),
        listen_socket=listen_socket,
    )


def run(
    config: Optional[ServiceConfig] = None,
    port_file: Optional[str] = None,
    install_signal_handlers: bool = True,
    listen_socket: Optional[socket_module.socket] = None,
) -> int:
    """Serve until SIGTERM/SIGINT; drain jobs; return the exit code."""
    server = create_server(config, listen_socket=listen_socket)
    host, port = server.server_address[0], server.bound_port
    if port_file:
        with open(port_file, "w") as handle:
            handle.write(f"{port}\n")
    label = (
        f" [{config.worker_id}]"
        if config is not None and config.worker_id is not None
        else ""
    )
    print(
        f"repro service{label} listening on http://{host}:{port}",
        flush=True,
    )

    def _request_shutdown(signum, frame):
        print(
            f"received signal {signum}; shutting down gracefully",
            flush=True,
        )
        # shutdown() must not run on the serve_forever thread (it waits
        # for the serve loop, which is paused inside this handler).
        threading.Thread(target=server.shutdown, daemon=True).start()

    if install_signal_handlers:
        signal.signal(signal.SIGTERM, _request_shutdown)
        signal.signal(signal.SIGINT, _request_shutdown)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        summary = server.service.shutdown()
        server.server_close()
        print(
            f"shutdown complete: {summary['drained']} job(s) drained, "
            f"{summary['cancelled']} cancelled",
            flush=True,
        )
    return 0
