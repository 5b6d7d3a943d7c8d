"""Campaign execution: a planned unit fleet on the shared job pool.

:class:`CampaignManager` runs each submitted :class:`Plan` from its own
coordinator thread:

* **heavy units** (profile surfaces, sweep union groups, scheme
  optimisations) become jobs on the daemon's existing
  :class:`~repro.service.jobs.JobManager` process pool, bounded by a
  per-campaign fan-out cap and retried per unit;
* **light units** (matrix points, AMAT pricings) run inline on the
  coordinator once their profile dependency is done — they only slice an
  already-computed surface and evaluate closed-form models, which costs
  microseconds and would waste a pool round-trip;
* every completed unit is **checkpointed** to the ``campaigns`` disk
  namespace under its canonical fingerprint the moment it finishes, so a
  killed daemon resumes a resubmitted campaign from the last finished
  unit instead of from zero;
* every campaign keeps one shared **state record** in the same
  namespace (``campaign-state:<id>``, format in
  :mod:`repro.perf.records`): the raw spec document plus a progress
  snapshot, so any worker can answer for the campaign and a surviving
  worker can adopt it after its owner dies.

Import discipline: no module-level ``repro.service`` imports — the
service layer imports this module.  The one service helper the sweep
task needs (:func:`~repro.service.batching.slice_grid`) is imported
lazily at call time, and the job manager plus metrics registry arrive by
injection.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import units as siunits
from repro.archsim.amat import amat_two_level
from repro.cache.assignment import knobs
from repro.cache.cache_model import CacheModel
from repro.cache.config import CacheConfig, l1_config, l2_config
from repro.energy.dynamic import MainMemoryModel
from repro.errors import (
    InfeasibleConstraintError,
    ServiceUnavailableError,
    ValidationError,
)
from repro.optimize.schemes import SCHEME_CODES
from repro.optimize.single_cache import (
    _compute_component_tables,
    minimize_leakage,
)
from repro.optimize.space import DesignSpace
from repro.perf import records
from repro.perf.disk_cache import DiskCache
from repro.perf.records import TERMINAL
from repro.perf.profile_store import get_store
from repro.perf.table_cache import cached_tables
from repro.technology.nodes import node_technology

from repro.campaign.planner import (
    CHECKPOINTS,
    Plan,
    Unit,
    build_plan,
    cache_from_payload,
    profile_unit_result,
    workload_from_payload,
)
from repro.campaign.spec import CampaignSpec

#: Campaign statuses.
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: Unit statuses (``reused`` = born done from a checkpoint or surface).
UNIT_PENDING = "pending"
UNIT_RUNNING = "running"
UNIT_DONE = "done"
UNIT_FAILED = "failed"
UNIT_CANCELLED = "cancelled"
UNIT_REUSED = "reused"

def _grid_to_lists(grid) -> list:
    return [[float(value) for value in row] for row in grid]


# ---------------------------------------------------------------------------
# Pool tasks (module-level: picklable by reference on the process pool)
# ---------------------------------------------------------------------------

def _profile_task(
    workload_payload: dict,
    policy: str,
    n_accesses: int,
    seed: int,
    cache_dir: Optional[str],
) -> dict:
    """Compute one dense (workload, policy) surface on a pool worker.

    The surface itself lands in the shared profile-store disk tier —
    the campaign's point and amat units slice it from the coordinator —
    and the returned unit result is the deterministic summary document.
    """
    spec = workload_from_payload(workload_payload)
    get_store(cache_dir).surface(
        spec, policy=policy, n_accesses=n_accesses, seed=seed
    )
    return profile_unit_result(spec, policy, n_accesses, seed)


def _sweep_group_task(
    members: Sequence[Tuple[str, dict]],
    cache_payload: dict,
    node: int = 65,
    scaling_style: str = "itrs",
) -> dict:
    """Evaluate one union (Vth, Tox) grid; slice every member out of it.

    This is the leader/follower batching discipline applied ahead of
    time: N same-structure sweep units cost one engine grid evaluation.
    Grouping guarantees every member shares one (node, style), so one
    technology covers the whole union.  Returns ``{unit_id:
    sweep-response dict}``.
    """
    # Lazy: repro.campaign must not import repro.service at module level.
    from repro.service.batching import slice_grid

    technology = node_technology(node, scaling_style)
    model = CacheModel(
        cache_from_payload(cache_payload), technology=technology
    )
    union_vths = sorted({v for _, p in members for v in p["vth"]})
    union_toxes = sorted({t for _, p in members for t in p["tox_angstrom"]})
    space = DesignSpace.for_technology(
        technology,
        vth_values=tuple(union_vths),
        tox_values_angstrom=tuple(union_toxes),
    )
    tables = cached_tables(model, space, _compute_component_tables)
    results = {}
    for unit_id, payload in members:
        vths = tuple(payload["vth"])
        toxes = tuple(payload["tox_angstrom"])
        components = {}
        for name in payload["components"]:
            sliced = slice_grid(tables, space, vths, toxes, name)
            components[name] = {
                "delay_ps": _grid_to_lists(siunits.to_ps(sliced["delay"])),
                "leakage_mw": _grid_to_lists(
                    siunits.to_mw(sliced["leakage"])
                ),
                "energy_pj": _grid_to_lists(
                    siunits.to_pj(sliced["energy"])
                ),
            }
        results[unit_id] = {
            "cache": payload["cache"]["name"],
            "node": node,
            "scaling_style": scaling_style,
            "vth": list(vths),
            "tox_angstrom": list(toxes),
            "components": components,
        }
    return results


def _optimize_task(payload: dict) -> dict:
    """Run one Section-4 scheme optimisation on a pool worker.

    An infeasible delay target is a *result* (``feasible: false`` with
    the best achievable access time), not a unit failure — a campaign
    comparing Schemes I–III across targets wants the frontier, not an
    error.
    """
    node = int(payload.get("node", 65))
    style = str(payload.get("scaling_style", "itrs"))
    technology = node_technology(node, style)
    model = CacheModel(
        cache_from_payload(payload["cache"]), technology=technology
    )
    scheme = SCHEME_CODES[payload["scheme"]]
    space = None
    if payload.get("vth") is not None:
        space = DesignSpace.for_technology(
            technology,
            vth_values=tuple(payload["vth"]),
            tox_values_angstrom=tuple(payload["tox_angstrom"]),
        )
    base = {
        "cache": payload["cache"]["name"],
        "node": node,
        "scaling_style": style,
        "scheme": scheme.paper_name,
        "target_ps": payload["target_ps"],
    }
    try:
        result = minimize_leakage(
            model, scheme, siunits.ps(payload["target_ps"]), space=space
        )
    except InfeasibleConstraintError as error:
        return {
            **base,
            "feasible": False,
            "best_achievable_ps": float(
                siunits.to_ps(error.best_achievable)
            ),
        }
    return {
        **base,
        "feasible": True,
        "access_ps": float(siunits.to_ps(result.access_time)),
        "slack_ps": float(siunits.to_ps(result.slack)),
        "leakage_mw": float(siunits.to_mw(result.leakage_power)),
        "assignment": {
            name: {
                "vth": float(point.vth),
                "tox_angstrom": float(point.tox_angstrom),
            }
            for name, point in result.assignment.components()
        },
    }


# ---------------------------------------------------------------------------
# Light units (run inline on the coordinator thread)
# ---------------------------------------------------------------------------

def run_point_unit(payload: dict, cache_dir: Optional[str] = None) -> dict:
    """One calibration point read off the workload's dense surface."""
    spec = workload_from_payload(payload["workload"])
    surface = get_store(cache_dir).surface(
        spec,
        policy=payload["policy"],
        n_accesses=payload["n_accesses"],
        seed=payload["seed"],
    )
    rate = surface.miss_rate(
        payload["level"], payload["size_kb"] * 1024, payload["assoc"]
    )
    return {
        "workload": spec.name,
        "policy": payload["policy"],
        "level": payload["level"],
        "size_kb": payload["size_kb"],
        "assoc": payload["assoc"],
        # float() everywhere a numpy scalar could leak through: results
        # are checkpointed as JSON and must round-trip bit-identically.
        "miss_rate": float(rate),
    }


def run_amat_unit(
    payload: dict,
    cache_dir: Optional[str] = None,
    model_for: Optional[
        Callable[[CacheConfig, int, str], CacheModel]
    ] = None,
) -> dict:
    """Price one two-level shape (mirrors ``POST /v1/amat``).

    Miss rates come from the campaign's own calibration surface; the
    circuit models come from ``model_for`` (the daemon's shared LRU of
    constructed :class:`CacheModel` objects, keyed by structure *and*
    technology node) when injected.
    """
    spec = workload_from_payload(payload["workload"])
    surface = get_store(cache_dir).surface(
        spec,
        policy=payload["policy"],
        n_accesses=payload["n_accesses"],
        seed=payload["seed"],
    )
    node = int(payload.get("node", 65))
    style = str(payload.get("scaling_style", "itrs"))
    l1_shape = l1_config(
        payload["l1_size_kb"], associativity=payload["l1_assoc"]
    )
    l2_shape = l2_config(
        payload["l2_size_kb"], associativity=payload["l2_assoc"]
    )
    if model_for is not None:
        l1_model = model_for(l1_shape, node, style)
        l2_model = model_for(l2_shape, node, style)
    else:
        technology = node_technology(node, style)
        l1_model = CacheModel(l1_shape, technology=technology)
        l2_model = CacheModel(l2_shape, technology=technology)
    l1_eval = l1_model.uniform(
        knobs(payload["l1_knobs"]["vth"], payload["l1_knobs"]["tox"])
    )
    l2_eval = l2_model.uniform(
        knobs(payload["l2_knobs"]["vth"], payload["l2_knobs"]["tox"])
    )
    memory = (
        MainMemoryModel(latency=siunits.ps(payload["memory_latency_ps"]))
        if payload.get("memory_latency_ps") is not None
        else MainMemoryModel()
    )
    m1 = surface.l1_miss_rate(
        l1_model.config.size_bytes, payload["l1_assoc"]
    )
    m2 = surface.l2_local_miss_rate(
        l2_model.config.size_bytes, payload["l2_assoc"]
    )
    amat = amat_two_level(
        l1_eval.access_time, m1, l2_eval.access_time, m2, memory.latency
    )
    energy = l1_eval.dynamic_read_energy + m1 * (
        l2_eval.dynamic_read_energy + m2 * memory.energy_per_access
    )
    result = {
        "workload": spec.name,
        "policy": payload["policy"],
        "node": node,
        "scaling_style": style,
        # float() everywhere a numpy scalar could leak through: results
        # are checkpointed as JSON and must round-trip bit-identically.
        "amat_ps": float(siunits.to_ps(amat)),
        "energy_per_access_pj": float(siunits.to_pj(energy)),
        "total_leakage_mw": float(siunits.to_mw(
            l1_eval.leakage_power + l2_eval.leakage_power
        )),
        "memory_latency_ps": float(siunits.to_ps(memory.latency)),
        "l1": {
            "size_kb": payload["l1_size_kb"],
            "associativity": payload["l1_assoc"],
            "access_ps": float(siunits.to_ps(l1_eval.access_time)),
            "leakage_mw": float(siunits.to_mw(l1_eval.leakage_power)),
            "miss_rate": float(m1),
        },
        "l2": {
            "size_kb": payload["l2_size_kb"],
            "associativity": payload["l2_assoc"],
            "access_ps": float(siunits.to_ps(l2_eval.access_time)),
            "leakage_mw": float(siunits.to_mw(l2_eval.leakage_power)),
            "local_miss_rate": float(m2),
        },
    }
    constraints = payload.get("constraints") or {}
    if constraints:
        violations = []
        max_amat = constraints.get("max_amat_ps")
        if max_amat is not None and result["amat_ps"] > max_amat:
            violations.append(
                f"amat_ps {result['amat_ps']:.1f} exceeds "
                f"max_amat_ps {max_amat:g}"
            )
        max_leakage = constraints.get("max_leakage_mw")
        if (
            max_leakage is not None
            and result["total_leakage_mw"] > max_leakage
        ):
            violations.append(
                f"total_leakage_mw {result['total_leakage_mw']:.3f} "
                f"exceeds max_leakage_mw {max_leakage:g}"
            )
        result["feasible"] = not violations
        result["violations"] = violations
    return result


# ---------------------------------------------------------------------------
# The manager
# ---------------------------------------------------------------------------

class _NullMetrics:
    """Metrics shim for managers constructed without a registry."""

    def increment(self, name: str, delta: int = 1) -> None:  # noqa: D102
        pass

    def register_gauge(self, name: str, callback) -> None:  # noqa: D102
        pass


@dataclass
class _Campaign:
    campaign_id: str
    plan: Plan
    created_at: float
    status: str = RUNNING
    finished_at: Optional[float] = None
    unit_status: Dict[str, str] = field(default_factory=dict)
    results: Dict[str, dict] = field(default_factory=dict)
    errors: Dict[str, str] = field(default_factory=dict)
    #: target id (unit or group) -> failures so far (drives retry).
    attempts: Dict[str, int] = field(default_factory=dict)
    #: child job id -> target id, for jobs currently outstanding.
    jobs: Dict[str, str] = field(default_factory=dict)
    #: every child job id ever submitted (cancellation observability).
    child_jobs: List[str] = field(default_factory=list)
    engine_passes: int = 0
    cancel_requested: bool = False
    #: Who cancelled: "client" (explicit ``DELETE``; the verdict is
    #: final everywhere) or "shutdown" (graceful drain interrupted the
    #: run; a sibling may adopt and resume from checkpoints).
    cancel_source: Optional[str] = None
    thread: Optional[threading.Thread] = None
    #: The raw spec document as submitted (JSON-able); persisted with
    #: the state record so any worker can rebuild the plan and adopt
    #: this campaign after its owner dies.
    spec_body: Optional[dict] = None
    #: True when this manager resumed the campaign from a persisted
    #: state record rather than a fresh client submission.
    adopted: bool = False


class CampaignManager:
    """Submit, observe, cancel, and resume declarative campaigns."""

    def __init__(
        self,
        jobs,
        metrics=None,
        cache_dir: Optional[str] = None,
        model_for: Optional[
            Callable[[CacheConfig, int, str], CacheModel]
        ] = None,
        max_inflight: int = 4,
        unit_retries: int = 1,
        poll_interval: float = 0.02,
        spec_parser: Optional[Callable[[dict], CampaignSpec]] = None,
        worker_id: Optional[str] = None,
    ) -> None:
        self._jobs = jobs
        self._metrics = metrics if metrics is not None else _NullMetrics()
        self._cache_dir = cache_dir
        self._model_for = model_for
        self._max_inflight = max(1, max_inflight)
        self._unit_retries = max(0, unit_retries)
        self._poll_interval = poll_interval
        # Unit checkpoints and per-campaign state records.
        self._disk = DiskCache(CHECKPOINTS, directory=cache_dir)
        # Injected by the service layer (import discipline: this
        # package cannot import repro.service.schemas itself).  Without
        # it, campaigns of dead workers are reported from their state
        # records but cannot be adopted.
        self._spec_parser = spec_parser
        self._worker_id = worker_id
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        # Serialises state-record persists (snapshot + disk write as
        # one unit) so a coordinator's stale pre-cancel snapshot can
        # never land *after* the cancel verdict and resurrect it.
        self._persist_lock = threading.Lock()
        self._campaigns: Dict[str, _Campaign] = {}
        self._ids = itertools.count(1)
        # Campaign ids must be unique across every worker sharing one
        # campaign store (and across restarts): namespace the counter
        # with a per-instance random token.
        self._instance = os.urandom(4).hex()
        self._shutdown = False
        self._metrics.register_gauge("campaigns.active", self.active_count)
        self._metrics.register_gauge(
            "campaigns.units_inflight", self.inflight_count
        )

    # -- observability -----------------------------------------------------

    def active_count(self) -> int:
        with self._lock:
            return sum(
                1 for c in self._campaigns.values() if c.status == RUNNING
            )

    def inflight_count(self) -> int:
        """Child jobs currently outstanding across all campaigns."""
        with self._lock:
            return sum(len(c.jobs) for c in self._campaigns.values())

    # -- lifecycle ---------------------------------------------------------

    def submit(
        self,
        spec: CampaignSpec,
        spec_body: Optional[dict] = None,
        campaign_id: Optional[str] = None,
    ) -> dict:
        """Plan and start one campaign; returns its first snapshot.

        ``spec_body`` is the raw (JSON-able) document the spec was
        parsed from; persisting it with the state record is what makes
        the campaign adoptable by other workers.  ``campaign_id``
        overrides id generation — the adoption path resumes an orphaned
        campaign *under its original id* so clients polling it never
        see a rename.
        """
        with self._lock:
            if self._shutdown:
                raise ServiceUnavailableError(
                    "the service is shutting down; no new campaigns accepted"
                )
        plan = build_plan(spec, cache_dir=self._cache_dir)
        now = time.time()
        adopted = campaign_id is not None
        with self._lock:
            if self._shutdown:
                raise ServiceUnavailableError(
                    "the service is shutting down; no new campaigns accepted"
                )
            if campaign_id is None:
                campaign_id = f"campaign-{self._instance}-{next(self._ids)}"
            elif campaign_id in self._campaigns:
                # Two threads raced to adopt the same orphan: first one
                # in wins, the loser serves the incumbent.
                return self._snapshot(
                    self._campaigns[campaign_id], include_results=False
                )
            campaign = _Campaign(
                campaign_id=campaign_id, plan=plan, created_at=now,
                spec_body=spec_body, adopted=adopted,
            )
            for unit in plan.units:
                if unit.unit_id in plan.reused:
                    campaign.unit_status[unit.unit_id] = UNIT_REUSED
                    campaign.results[unit.unit_id] = plan.reused[unit.unit_id]
                else:
                    campaign.unit_status[unit.unit_id] = UNIT_PENDING
            born_done = all(
                status == UNIT_REUSED
                for status in campaign.unit_status.values()
            )
            if born_done:
                campaign.status = DONE
                campaign.finished_at = now
            self._campaigns[campaign_id] = campaign
        self._metrics.increment("campaigns.submitted")
        if adopted:
            self._metrics.increment("campaigns.adopted")
        if plan.reused:
            self._metrics.increment(
                "campaigns.checkpoint_hits", len(plan.reused)
            )
        if plan.deduped:
            self._metrics.increment("campaigns.units_deduped", plan.deduped)
        self._persist_state(campaign)
        if born_done:
            self._metrics.increment("campaigns.completed")
        else:
            campaign.thread = threading.Thread(
                target=self._run,
                args=(campaign,),
                name=f"repro-{campaign_id}",
                daemon=True,
            )
            campaign.thread.start()
        return self.get(campaign_id, include_results=False)

    # -- shared-state recovery ---------------------------------------------

    @staticmethod
    def _state_key(campaign_id: str) -> str:
        return f"campaign-state:{campaign_id}"

    def _persist_state(self, campaign: _Campaign, verdict=None) -> None:
        """Write this campaign's shared state record (best-effort).

        The snapshot and the disk write are one serialised unit: two
        racing persisters (the coordinator's progress checkpoint and a
        cancel/shutdown verdict) must commit in snapshot order, or the
        stale snapshot would win the disk and e.g. report a cancelled
        campaign as ``running`` forever.  ``verdict`` (status,
        finished_at) is written in place of a still-running status, so
        :meth:`_conclude` can persist a verdict before it turns visible.
        """
        with self._persist_lock:
            with self._lock:
                record = self._snapshot(campaign, include_results=False)
                if verdict is not None and campaign.status not in TERMINAL:
                    record["status"], record["finished_at"] = verdict
                record["spec_body"] = campaign.spec_body
                if campaign.cancel_source is not None:
                    record["cancelled_by"] = campaign.cancel_source
            records.write(
                self._disk, self._state_key(campaign.campaign_id), record,
                worker=self._worker_id, instance=self._instance,
            )

    def _state_record(self, campaign_id: str) -> Optional[dict]:
        return records.read(
            self._disk, self._state_key(campaign_id), "campaign_id"
        )

    def _recover(self, campaign_id: str) -> Optional[dict]:
        """Resolve a locally-unknown campaign id via the shared store.

        Returns a snapshot, or ``None`` for a genuinely unknown id.
        The cases:

        * the owner is alive — serve its persisted progress record
          (slightly stale, refreshed on every unit completion);
        * the record is client-``cancelled`` or ``failed`` — serve the
          verdict as-is.  Those are final: adopting would silently
          resurrect the campaign and flip its status back to running
          on a mere GET;
        * the owner died mid-run (orphaned ``running``, a shutdown
          drain's ``cancelled``) or the record is ``done`` — **adopt**:
          re-parse the persisted spec, rebuild the plan, and resume
          under the original id.  Finished units come back
          born-``reused`` from their checkpoints; in-flight work at
          the moment of death is re-run.  A ``done`` campaign
          re-assembles entirely from checkpoints and is served
          bit-identically;
        * no spec parser was injected (or the record carries no spec) —
          serve the record as-is; adoption is impossible.
        """
        record = self._state_record(campaign_id)
        if record is None:
            return None
        self._metrics.increment("campaigns.store_serves")
        status = record.get("status")
        if status == RUNNING and records.owned_by_sibling(record):
            return records.client_view(
                record,
                note="campaign is owned by another worker; this is its "
                     "latest persisted progress",
            )
        if status == FAILED or (
            status == CANCELLED and record.get("cancelled_by") != "shutdown"
        ):
            # A client cancelled it, or the run earned its failure:
            # the verdict is final on every worker.
            return records.client_view(record)
        body = record.get("spec_body")
        if body is None or self._spec_parser is None:
            return records.client_view(record)
        try:
            spec = self._spec_parser(body)
        except Exception:  # noqa: BLE001 - unparsable old record
            return records.client_view(record)
        self.submit(spec, spec_body=body, campaign_id=campaign_id)
        return self.get(campaign_id, include_results=False)

    def get(self, campaign_id: str, include_results: bool = True) -> dict:
        with self._lock:
            campaign = self._campaigns.get(campaign_id)
            if campaign is not None:
                return self._snapshot(campaign, include_results)
        recovered = self._recover(campaign_id)
        if recovered is None:
            raise ValidationError(
                f"unknown campaign id {campaign_id!r}", status=404
            )
        with self._lock:
            campaign = self._campaigns.get(campaign_id)
            if campaign is not None:  # adopted: serve it locally now
                return self._snapshot(campaign, include_results)
        return recovered

    def wait(
        self,
        campaign_id: str,
        seconds: float,
        include_results: bool = True,
    ) -> dict:
        """Block until the campaign is terminal or the wait elapses.

        A campaign owned by another (live) worker is long-polled
        against the shared state record
        (:func:`repro.perf.records.long_poll`) instead of the local
        condition variable.
        """
        deadline = time.monotonic() + max(0.0, seconds)

        def fetch() -> dict:
            with self._cond:
                if campaign_id in self._campaigns:  # ours, or adopted
                    return self._wait_local(
                        campaign_id, deadline, include_results
                    )
            recovered = self._recover(campaign_id)
            if recovered is None:
                raise ValidationError(
                    f"unknown campaign id {campaign_id!r}", status=404
                )
            with self._cond:
                if campaign_id in self._campaigns:  # adopted just now
                    return self._wait_local(
                        campaign_id, deadline, include_results
                    )
            return recovered

        return records.long_poll(fetch, deadline)

    def _wait_local(
        self, campaign_id: str, deadline: float, include_results: bool
    ) -> dict:
        """Condition-variable wait for a locally-owned campaign.

        Caller must hold ``self._cond``.
        """
        while True:
            campaign = self._campaigns[campaign_id]
            if campaign.status in TERMINAL:
                break
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            self._cond.wait(min(remaining, 0.25))
        return self._snapshot(campaign, include_results)

    def cancel(self, campaign_id: str) -> dict:
        """Cancel a campaign and all its outstanding child jobs.

        Checkpoints of already-finished units stay on disk — that is the
        point: a resubmitted identical spec resumes from them.
        """
        with self._cond:
            campaign = self._campaigns.get(campaign_id)
            if campaign is None:
                record = self._state_record(campaign_id)
                if record is None:
                    raise ValidationError(
                        f"unknown campaign id {campaign_id!r}", status=404
                    )
                return records.cancel_view(record, "campaign")
            if campaign.status in TERMINAL:
                return self._snapshot(campaign, include_results=False)
            campaign.cancel_requested = True
            outstanding = list(campaign.jobs)
        # Child-job cancellation happens outside our lock (JobManager has
        # its own locking discipline and may run done-callbacks inline).
        for job_id in outstanding:
            try:
                self._jobs.cancel(job_id)
            except ValidationError:
                pass
        with self._cond:
            for unit_id, status in campaign.unit_status.items():
                if status in (UNIT_PENDING, UNIT_RUNNING):
                    campaign.unit_status[unit_id] = UNIT_CANCELLED
            campaign.jobs.clear()
            if campaign.status not in TERMINAL:
                campaign.status = CANCELLED
                campaign.cancel_source = "client"
                campaign.finished_at = time.time()
            self._cond.notify_all()
            snapshot = self._snapshot(campaign, include_results=False)
        self._persist_state(campaign)
        self._metrics.increment("campaigns.cancelled")
        return snapshot

    def shutdown(self, wait_seconds: float = 2.0) -> dict:
        """Stop coordinators (SIGTERM path; child jobs drain separately)."""
        with self._cond:
            self._shutdown = True
            active = [
                c for c in self._campaigns.values() if c.status == RUNNING
            ]
            for campaign in active:
                campaign.cancel_requested = True
                for unit_id, status in campaign.unit_status.items():
                    if status in (UNIT_PENDING, UNIT_RUNNING):
                        campaign.unit_status[unit_id] = UNIT_CANCELLED
                campaign.status = CANCELLED
                campaign.cancel_source = "shutdown"
                campaign.finished_at = time.time()
                campaign.jobs.clear()  # they drain with the job manager
            self._cond.notify_all()
        deadline = time.monotonic() + wait_seconds
        for campaign in active:
            if campaign.thread is not None:
                campaign.thread.join(
                    timeout=max(0.0, deadline - time.monotonic())
                )
        for campaign in active:
            # Record the cancelled verdict so a sibling (or a restarted
            # daemon) can adopt and resume from the checkpoints.
            self._persist_state(campaign)
        return {"cancelled": len(active)}

    # -- the coordinator ---------------------------------------------------

    def _run(self, campaign: _Campaign) -> None:
        try:
            while True:
                with self._lock:
                    if campaign.status != RUNNING or self._shutdown:
                        return
                progressed = self._collect(campaign)
                progressed = self._launch(campaign) or progressed
                if self._finalize_if_complete(campaign):
                    return
                if progressed:
                    # Progress checkpoints make the shared record a live
                    # progress view for siblings answering polls.
                    self._persist_state(campaign)
                else:
                    time.sleep(self._poll_interval)
        except Exception as error:  # noqa: BLE001 - coordinator must not die
            with self._lock:
                if campaign.status not in TERMINAL:
                    campaign.errors["coordinator"] = (
                        f"{type(error).__name__}: {error}"
                    )
            if self._conclude(campaign, FAILED):
                self._metrics.increment("campaigns.failed")

    def _targets(self, campaign: _Campaign, target: str) -> List[Unit]:
        """The units a job target id (unit or group id) covers."""
        plan = campaign.plan
        if target in plan.groups:
            return [plan.by_id[unit_id] for unit_id in plan.groups[target]]
        return [plan.by_id[target]]

    def _collect(self, campaign: _Campaign) -> bool:
        """Fold finished child jobs back into unit state."""
        with self._lock:
            outstanding = dict(campaign.jobs)
        progressed = False
        for job_id, target in outstanding.items():
            try:
                snapshot = self._jobs.get(job_id)
            except ValidationError:
                snapshot = {"status": "failed", "error": "job record lost"}
            status = snapshot.get("status")
            if status not in TERMINAL:
                continue
            progressed = True
            with self._lock:
                campaign.jobs.pop(job_id, None)
            if status == "done":
                self._record_success(
                    campaign, target, snapshot.get("result")
                )
            else:
                self._record_failure(
                    campaign,
                    target,
                    snapshot.get("error") or f"child job {status}",
                )
        return progressed

    def _record_success(
        self, campaign: _Campaign, target: str, result
    ) -> None:
        units_done = 0
        per_unit: Dict[str, dict] = {}
        members = self._targets(campaign, target)
        if target in campaign.plan.groups:
            result = result or {}
            for unit in members:
                per_unit[unit.unit_id] = result.get(unit.unit_id)
        else:
            per_unit[members[0].unit_id] = result
        # Checkpoint before flipping status: a crash between the two at
        # worst re-runs a finished unit, never records an unbacked one.
        for unit in members:
            payload = per_unit.get(unit.unit_id)
            if payload is not None:
                self._disk.store(unit.fingerprint, payload)
        with self._cond:
            campaign.engine_passes += 1
            for unit in members:
                payload = per_unit.get(unit.unit_id)
                if campaign.unit_status.get(unit.unit_id) != UNIT_RUNNING:
                    continue
                if payload is None:
                    campaign.unit_status[unit.unit_id] = UNIT_FAILED
                    campaign.errors[unit.unit_id] = (
                        "group result missing this unit"
                    )
                    continue
                campaign.unit_status[unit.unit_id] = UNIT_DONE
                campaign.results[unit.unit_id] = payload
                units_done += 1
            self._cond.notify_all()
        self._metrics.increment("campaigns.engine_passes")
        if units_done:
            self._metrics.increment("campaigns.units_done", units_done)

    def _record_failure(
        self, campaign: _Campaign, target: str, error: str
    ) -> None:
        members = self._targets(campaign, target)
        with self._cond:
            campaign.attempts[target] = campaign.attempts.get(target, 0) + 1
            retry = campaign.attempts[target] <= self._unit_retries
            failed = 0
            for unit in members:
                if campaign.unit_status.get(unit.unit_id) != UNIT_RUNNING:
                    continue
                if retry:
                    campaign.unit_status[unit.unit_id] = UNIT_PENDING
                else:
                    campaign.unit_status[unit.unit_id] = UNIT_FAILED
                    campaign.errors[unit.unit_id] = error
                    failed += 1
            self._cond.notify_all()
        if retry:
            self._metrics.increment("campaigns.unit_retries")
        if failed:
            self._metrics.increment("campaigns.units_failed", failed)

    def _deps_state(self, campaign: _Campaign, unit: Unit) -> str:
        """'ready', 'waiting', or 'failed' for a unit's dependencies."""
        verdict = "ready"
        for dep_id in unit.after:
            status = campaign.unit_status.get(dep_id)
            if status in (UNIT_FAILED, UNIT_CANCELLED):
                return "failed"
            if status not in (UNIT_DONE, UNIT_REUSED):
                verdict = "waiting"
        return verdict

    def _launch(self, campaign: _Campaign) -> bool:
        progressed = False
        for unit in campaign.plan.units:
            with self._lock:
                if campaign.status != RUNNING or campaign.cancel_requested:
                    return progressed
                if campaign.unit_status.get(unit.unit_id) != UNIT_PENDING:
                    continue
                deps = self._deps_state(campaign, unit)
                if deps == "waiting":
                    continue
                if deps == "failed":
                    campaign.unit_status[unit.unit_id] = UNIT_FAILED
                    campaign.errors[unit.unit_id] = (
                        "dependency failed or was cancelled"
                    )
                    self._cond.notify_all()
                    self._metrics.increment("campaigns.units_failed")
                    progressed = True
                    continue
                if unit.heavy and len(campaign.jobs) >= self._max_inflight:
                    continue
            if unit.heavy:
                progressed = self._submit_heavy(campaign, unit) or progressed
            else:
                self._run_light(campaign, unit)
                progressed = True
        return progressed

    def _submit_heavy(self, campaign: _Campaign, unit: Unit) -> bool:
        plan = campaign.plan
        if unit.group is not None:
            target = unit.group
            member_units = [
                plan.by_id[unit_id]
                for unit_id in plan.groups[target]
                if campaign.unit_status.get(unit_id) == UNIT_PENDING
            ]
            args = (
                [(m.unit_id, m.payload) for m in member_units],
                unit.payload["cache"],
                unit.payload.get("node", 65),
                unit.payload.get("scaling_style", "itrs"),
            )
            fn = _sweep_group_task
        else:
            target = unit.unit_id
            member_units = [unit]
            if unit.kind == "profile":
                fn = _profile_task
                args = (
                    unit.payload["workload"],
                    unit.payload["policy"],
                    unit.payload["n_accesses"],
                    unit.payload["seed"],
                    self._cache_dir,
                )
            else:
                fn = _optimize_task
                args = (unit.payload,)
        try:
            job_id = self._jobs.submit(
                "campaign-unit",
                fn,
                *args,
                detail={
                    "campaign_id": campaign.campaign_id,
                    "unit": target,
                },
            )
        except ServiceUnavailableError:
            return False
        with self._lock:
            campaign.jobs[job_id] = target
            campaign.child_jobs.append(job_id)
            for member in member_units:
                campaign.unit_status[member.unit_id] = UNIT_RUNNING
            cancelled = campaign.cancel_requested
        if cancelled:
            # Raced a cancel between submit and registration: withdraw.
            try:
                self._jobs.cancel(job_id)
            except ValidationError:
                pass
        return True

    def _run_light(self, campaign: _Campaign, unit: Unit) -> None:
        with self._lock:
            campaign.unit_status[unit.unit_id] = UNIT_RUNNING
        try:
            if unit.kind == "point":
                result = run_point_unit(unit.payload, self._cache_dir)
            else:
                result = run_amat_unit(
                    unit.payload, self._cache_dir, self._model_for
                )
        except Exception as error:  # noqa: BLE001 - unit fails, not the run
            self._record_failure(
                campaign, unit.unit_id, f"{type(error).__name__}: {error}"
            )
            return
        self._disk.store(unit.fingerprint, result)
        with self._cond:
            if campaign.unit_status.get(unit.unit_id) == UNIT_RUNNING:
                campaign.unit_status[unit.unit_id] = UNIT_DONE
                campaign.results[unit.unit_id] = result
                self._cond.notify_all()
        self._metrics.increment("campaigns.units_done")

    def _finalize_if_complete(self, campaign: _Campaign) -> bool:
        with self._lock:
            if campaign.status in TERMINAL:
                return True
            statuses = campaign.unit_status.values()
            if any(
                s in (UNIT_PENDING, UNIT_RUNNING) for s in statuses
            ):
                return False
            failed = any(s == UNIT_FAILED for s in statuses)
        verdict = FAILED if failed else DONE
        if self._conclude(campaign, verdict):
            self._metrics.increment(
                "campaigns.failed" if verdict == FAILED
                else "campaigns.completed"
            )
        return True

    def _conclude(self, campaign: _Campaign, verdict: str) -> bool:
        """Persist ``verdict`` (done or failed), then make it visible.

        A client that :meth:`wait` wakes finds the verdict in the shared
        record too, as it does for jobs.  Returns ``False`` if a cancel
        or a drain got there first (its own record then wins the disk).
        """
        finished_at = time.time()
        self._persist_state(campaign, verdict=(verdict, finished_at))
        with self._cond:
            if campaign.status in TERMINAL:
                return False
            campaign.status = verdict
            campaign.finished_at = finished_at
            self._cond.notify_all()
        return True

    # -- snapshots ---------------------------------------------------------

    def _snapshot(self, campaign: _Campaign, include_results: bool) -> dict:
        plan = campaign.plan
        counts = {
            "total": len(plan.units),
            "done": 0,
            "failed": 0,
            "cancelled": 0,
            "pending": 0,
            "running": 0,
            "reused": 0,
            "deduped": plan.deduped,
        }
        for status in campaign.unit_status.values():
            if status == UNIT_REUSED:
                counts["reused"] += 1
                counts["done"] += 1  # finished without work: still done
            elif status in counts:
                counts[status] += 1
        payload = {
            "campaign_id": campaign.campaign_id,
            "name": plan.spec.name,
            "status": campaign.status,
            "created_at": campaign.created_at,
            "finished_at": campaign.finished_at,
            "units": counts,
            "engine_passes": campaign.engine_passes,
            "jobs": sorted(campaign.jobs),
            "child_jobs": list(campaign.child_jobs),
            "poll": f"/v1/campaigns/{campaign.campaign_id}",
        }
        if campaign.adopted:
            payload["adopted"] = True
        if campaign.errors:
            payload["failures"] = dict(campaign.errors)
        if include_results:
            results: Dict[str, list] = {}
            for unit in plan.units:
                result = campaign.results.get(unit.unit_id)
                if result is None:
                    continue
                entry = {"unit_id": unit.unit_id}
                entry.update(result)
                results.setdefault(unit.kind, []).append(entry)
            payload["results"] = results
            summary = self._summary(results)
            if summary:
                payload["summary"] = summary
        return payload

    @staticmethod
    def _summary(results: Dict[str, list]) -> dict:
        """Best feasible AMAT point: min leakage, ties on latency."""
        candidates = [
            entry
            for entry in results.get("amat", ())
            if entry.get("feasible", True)
        ]
        if not candidates:
            return {}
        best = min(
            candidates,
            key=lambda e: (e["total_leakage_mw"], e["amat_ps"]),
        )
        return {
            "best_amat": {
                "unit_id": best["unit_id"],
                "workload": best["workload"],
                "policy": best["policy"],
                "node": best.get("node", 65),
                "l1_size_kb": best["l1"]["size_kb"],
                "l1_assoc": best["l1"]["associativity"],
                "l2_size_kb": best["l2"]["size_kb"],
                "l2_assoc": best["l2"]["associativity"],
                "amat_ps": best["amat_ps"],
                "total_leakage_mw": best["total_leakage_mw"],
            }
        }
