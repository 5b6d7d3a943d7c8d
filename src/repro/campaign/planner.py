"""Campaign planning: spec -> canonical, deduplicated unit work items.

The planner turns one :class:`~repro.campaign.spec.CampaignSpec` into a
:class:`Plan`:

* **expansion** — every block of the spec becomes unit work items in a
  deterministic order (profiles, matrix points, amat points, sweeps,
  optimisations);
* **canonical fingerprints** — each unit is keyed by
  :func:`repro.perf.disk_cache.make_fingerprint` over exactly the
  inputs that determine its result (structure, axes, surface identity —
  never the campaign or cache names), so identical work keys identically
  across campaigns;
* **dedup** — units that collapse onto an already-planned fingerprint
  are dropped and counted;
* **checkpoint reuse** — units whose fingerprint is already in the
  ``campaigns`` disk store (or, for profile units, whose dense surface
  is already servable by the profile store) are born done with the
  checkpointed result;
* **sweep coalescing** — same-model sweep units are grouped into
  union-grid batches (the leader/follower discipline of the daemon's
  sweep batcher, applied ahead of time), bounded by
  :data:`repro.answers.MAX_UNION_POINTS`, so N sweeps over one structure
  cost one engine evaluation.

Unit payloads are plain JSON-able dicts — they cross the process-pool
boundary and land in checkpoints verbatim.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.answers import MAX_UNION_POINTS, model_key, structure_key
from repro.archsim.workloads import WorkloadSpec
from repro.cache.assignment import Knobs
from repro.cache.config import CacheConfig
from repro.optimize.two_level import default_l1_knobs, default_l2_knobs
from repro.perf.disk_cache import DiskCache, make_fingerprint
from repro.technology.nodes import node_technology
from repro.perf.profile_store import (
    L1_SURFACE_SET_COUNTS,
    L2_SURFACE_SET_COUNTS,
    SURFACE_ASSOCS,
    get_store,
    surface_fingerprint,
)

from repro.campaign.spec import CAMPAIGN_FORMAT, CampaignSpec

#: Disk namespace of unit checkpoints, keyed by unit fingerprint (the
#: runner keeps its per-campaign state records there too).
CHECKPOINTS = "campaigns"

#: Unit kinds that run as their own job on the worker pool; everything
#: else is served inline by the campaign coordinator (surface slices and
#: closed-form pricing cost microseconds once the surface exists).
HEAVY_KINDS = ("profile", "optimize")


@dataclass
class Unit:
    """One canonical work item of a planned campaign."""

    unit_id: str
    kind: str
    fingerprint: str
    payload: dict
    after: Tuple[str, ...] = ()
    group: Optional[str] = None

    @property
    def heavy(self) -> bool:
        return self.kind in HEAVY_KINDS or self.group is not None


@dataclass
class Plan:
    """A fully-expanded campaign: units, reuse, and sweep groups."""

    spec: CampaignSpec
    units: List[Unit] = field(default_factory=list)
    by_id: Dict[str, Unit] = field(default_factory=dict)
    #: unit_id -> checkpointed result (born done, no work scheduled).
    reused: Dict[str, dict] = field(default_factory=dict)
    #: Units dropped because an identical fingerprint was already planned.
    deduped: int = 0
    #: group id -> unit ids of sweep units computed in one union batch.
    groups: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def total_units(self) -> int:
        return len(self.units)


def workload_payload(spec: WorkloadSpec) -> dict:
    return asdict(spec)


def workload_from_payload(payload: dict) -> WorkloadSpec:
    return WorkloadSpec(**payload)


def cache_payload(config: CacheConfig) -> dict:
    return {
        "size_bytes": config.size_bytes,
        "block_bytes": config.block_bytes,
        "associativity": config.associativity,
        "output_bits": config.output_bits,
        "name": config.name,
    }


def cache_from_payload(payload: dict) -> CacheConfig:
    return CacheConfig(
        size_bytes=int(payload["size_bytes"]),
        block_bytes=int(payload["block_bytes"]),
        associativity=int(payload["associativity"]),
        output_bits=int(payload["output_bits"]),
        name=str(payload["name"]),
    )


def knobs_payload(value: Knobs) -> dict:
    return {"vth": value.vth, "tox": value.tox_angstrom}


def unit_fingerprint(kind: str, *parts) -> str:
    """Canonical key of one unit (folds the campaign format version)."""
    return make_fingerprint("campaign-unit", CAMPAIGN_FORMAT, kind, *parts)


def profile_unit_result(spec: WorkloadSpec, policy: str, n_accesses: int,
                        seed: int) -> dict:
    """The deterministic result payload of a profile unit.

    Both the planner (reusing an already-servable surface) and the
    runner (after computing one) emit exactly this document, so a
    resumed campaign is bit-identical to an uninterrupted one.
    """
    points = len(SURFACE_ASSOCS)
    return {
        "workload": spec.name,
        "policy": policy,
        "n_accesses": n_accesses,
        "seed": seed,
        "l1_points": len(L1_SURFACE_SET_COUNTS) * points,
        "l2_points": len(L2_SURFACE_SET_COUNTS) * points,
    }


def build_plan(spec: CampaignSpec, cache_dir=None) -> Plan:
    """Expand, canonicalise, dedup, and pre-complete one campaign."""
    checkpoints = DiskCache(CHECKPOINTS, directory=cache_dir)
    profile_store = get_store(cache_dir)
    plan = Plan(spec=spec)
    counters: Dict[str, int] = {}
    by_fingerprint: Dict[str, Unit] = {}
    calibration = spec.calibration

    def add(kind: str, fingerprint: str, payload: dict,
            after: Tuple[str, ...] = ()) -> Unit:
        existing = by_fingerprint.get(fingerprint)
        if existing is not None:
            plan.deduped += 1
            return existing
        counters[kind] = counters.get(kind, 0) + 1
        unit = Unit(
            unit_id=f"{kind}-{counters[kind]}",
            kind=kind,
            fingerprint=fingerprint,
            payload=payload,
            after=after,
        )
        by_fingerprint[fingerprint] = unit
        plan.units.append(unit)
        plan.by_id[unit.unit_id] = unit
        return unit

    # -- profile units: one dense surface per (workload, policy) -----------
    profile_ids: Dict[Tuple[str, str], str] = {}
    if spec.needs_surfaces:
        for workload in spec.workloads:
            for policy in spec.policies:
                fingerprint = unit_fingerprint(
                    "profile",
                    surface_fingerprint(
                        workload, policy,
                        calibration.n_accesses, calibration.seed,
                    ),
                )
                unit = add("profile", fingerprint, {
                    "workload": workload_payload(workload),
                    "policy": policy,
                    "n_accesses": calibration.n_accesses,
                    "seed": calibration.seed,
                })
                profile_ids[(workload.name, policy)] = unit.unit_id
                # A surface the profile store can already serve (memory
                # or disk tier) makes the unit free: born done.
                if unit.unit_id not in plan.reused and profile_store.peek(
                    workload, policy=policy,
                    n_accesses=calibration.n_accesses, seed=calibration.seed,
                ) is not None:
                    plan.reused[unit.unit_id] = profile_unit_result(
                        workload, policy,
                        calibration.n_accesses, calibration.seed,
                    )

    def surface_key(workload: WorkloadSpec, policy: str) -> str:
        return surface_fingerprint(
            workload, policy, calibration.n_accesses, calibration.seed
        )

    def reuse_from_checkpoint(unit: Unit) -> None:
        if unit.unit_id in plan.reused:
            return
        checkpointed = checkpoints.load(unit.fingerprint)
        if checkpointed is not None:
            plan.reused[unit.unit_id] = checkpointed

    # -- matrix point units ------------------------------------------------
    if spec.matrix is not None:
        matrix = spec.matrix
        levels = (
            ("l1", matrix.l1_sizes_kb, matrix.l1_assocs),
            ("l2", matrix.l2_sizes_kb, matrix.l2_assocs),
        )
        for workload in spec.workloads:
            for policy in spec.policies:
                dep = (profile_ids[(workload.name, policy)],)
                for level, sizes_kb, assocs in levels:
                    for size_kb in sizes_kb:
                        for assoc in assocs:
                            fingerprint = unit_fingerprint(
                                "point", surface_key(workload, policy),
                                level, size_kb, assoc,
                            )
                            unit = add("point", fingerprint, {
                                "workload": workload_payload(workload),
                                "policy": policy,
                                "n_accesses": calibration.n_accesses,
                                "seed": calibration.seed,
                                "level": level,
                                "size_kb": size_kb,
                                "assoc": assoc,
                            }, after=dep)
                            reuse_from_checkpoint(unit)

    # The technology axis: circuit-level units (amat, sweep, optimize)
    # expand once per (node, style) and carry it in their fingerprints —
    # the same shape at two nodes is two different results.
    tech_axis = tuple(
        (node, spec.scaling_style) for node in spec.nodes
    )

    # -- amat units --------------------------------------------------------
    if spec.amat is not None:
        amat = spec.amat
        constraints = {}
        if spec.constraints.max_amat_ps is not None:
            constraints["max_amat_ps"] = spec.constraints.max_amat_ps
        if spec.constraints.max_leakage_mw is not None:
            constraints["max_leakage_mw"] = spec.constraints.max_leakage_mw
        for workload in spec.workloads:
            for policy in spec.policies:
                dep = (profile_ids[(workload.name, policy)],)
                for node, style in tech_axis:
                    technology = node_technology(node, style)
                    l1_point = (
                        amat.l1_knobs
                        if amat.l1_knobs is not None
                        else default_l1_knobs(technology)
                    )
                    l2_point = (
                        amat.l2_knobs
                        if amat.l2_knobs is not None
                        else default_l2_knobs(technology)
                    )
                    for l1_size_kb in amat.l1_sizes_kb:
                        for l1_assoc in amat.l1_assocs:
                            for l2_size_kb in amat.l2_sizes_kb:
                                for l2_assoc in amat.l2_assocs:
                                    shape = {
                                        "node": node,
                                        "scaling_style": style,
                                        "l1_size_kb": l1_size_kb,
                                        "l1_assoc": l1_assoc,
                                        "l2_size_kb": l2_size_kb,
                                        "l2_assoc": l2_assoc,
                                        "l1_knobs":
                                            knobs_payload(l1_point),
                                        "l2_knobs":
                                            knobs_payload(l2_point),
                                        "memory_latency_ps":
                                            amat.memory_latency_ps,
                                        "constraints": constraints,
                                    }
                                    fingerprint = unit_fingerprint(
                                        "amat",
                                        surface_key(workload, policy),
                                        shape,
                                    )
                                    unit = add("amat", fingerprint, {
                                        "workload":
                                            workload_payload(workload),
                                        "policy": policy,
                                        "n_accesses":
                                            calibration.n_accesses,
                                        "seed": calibration.seed,
                                        **shape,
                                    }, after=dep)
                                    reuse_from_checkpoint(unit)

    # -- sweep units -------------------------------------------------------
    sweep_units: List[Unit] = []
    for block in spec.sweeps:
        for node, style in tech_axis:
            fingerprint = unit_fingerprint(
                "sweep", structure_key(block.config), node, style,
                block.vths, block.toxes_angstrom, block.components,
            )
            unit = add("sweep", fingerprint, {
                "cache": cache_payload(block.config),
                "node": node,
                "scaling_style": style,
                "vth": list(block.vths),
                "tox_angstrom": list(block.toxes_angstrom),
                "components": list(block.components),
            })
            reuse_from_checkpoint(unit)
            if unit not in sweep_units:
                sweep_units.append(unit)

    # -- optimize units ----------------------------------------------------
    if spec.optimize is not None:
        block = spec.optimize
        for config in block.configs:
            for scheme in block.schemes:
                for target_ps in block.targets_ps:
                    for node, style in tech_axis:
                        fingerprint = unit_fingerprint(
                            "optimize", structure_key(config), node, style,
                            scheme, target_ps, block.vths,
                            block.toxes_angstrom,
                        )
                        unit = add("optimize", fingerprint, {
                            "cache": cache_payload(config),
                            "node": node,
                            "scaling_style": style,
                            "scheme": scheme,
                            "target_ps": target_ps,
                            "vth": (
                                list(block.vths)
                                if block.vths is not None else None
                            ),
                            "tox_angstrom": (
                                list(block.toxes_angstrom)
                                if block.toxes_angstrom is not None else None
                            ),
                        })
                        reuse_from_checkpoint(unit)

    _group_sweeps(plan, sweep_units)
    return plan


def _group_sweeps(plan: Plan, sweep_units: List[Unit]) -> None:
    """Coalesce non-reused sweep units into bounded union-grid groups."""
    # Grouping identity = the model map's key: a union grid is one
    # engine pass over one model, and the model is (structure, node,
    # style) — grids at different nodes can never share tables.
    by_model: Dict[Tuple, List[Unit]] = {}
    for unit in sweep_units:
        if unit.unit_id in plan.reused:
            continue
        key = model_key(
            cache_from_payload(unit.payload["cache"]),
            unit.payload["node"],
            unit.payload["scaling_style"],
        )
        by_model.setdefault(key, []).append(unit)

    group_index = 0
    for members in by_model.values():
        current: List[Unit] = []
        union_vths: set = set()
        union_toxes: set = set()

        def flush() -> None:
            nonlocal group_index, current, union_vths, union_toxes
            if not current:
                return
            group_index += 1
            group_id = f"group-{group_index}"
            plan.groups[group_id] = [unit.unit_id for unit in current]
            for unit in current:
                unit.group = group_id
            current = []
            union_vths = set()
            union_toxes = set()

        for unit in members:
            vths = set(unit.payload["vth"])
            toxes = set(unit.payload["tox_angstrom"])
            grown_vths = union_vths | vths
            grown_toxes = union_toxes | toxes
            if current and (
                len(grown_vths) * len(grown_toxes) > MAX_UNION_POINTS
            ):
                flush()
                grown_vths, grown_toxes = vths, toxes
            current.append(unit)
            union_vths, union_toxes = grown_vths, grown_toxes
        flush()
