"""Request decoding and validation for the service endpoints.

Every endpoint handler receives already-validated, typed request objects
from this module; nothing downstream ever sees raw client JSON.  All
failures raise :class:`repro.errors.ValidationError` carrying the HTTP
status the transport layer should answer with (400 for bad input, 413
for oversized grids/traces), so a malformed request can never take a
worker thread down or surface as a 500.

The limits here are the daemon's admission control: a single sweep is
capped at :data:`MAX_GRID_POINTS` grid points and a calibration at
:data:`MAX_TRACE_ACCESSES` accesses — enough for every legitimate use of
the engines, small enough that one request cannot monopolise the
process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields
from typing import Dict, Optional, Tuple

from repro.errors import ValidationError
from repro.archsim.workloads import STANDARD_WORKLOADS, WorkloadSpec
from repro.cache.assignment import COMPONENT_NAMES, Knobs, knobs
from repro.cache.config import CacheConfig
from repro.optimize.schemes import Scheme
from repro.perf.profile_store import SURFACE_ASSOCS
from repro.technology.bptm import Technology
from repro.technology.nodes import NODES, SCALING_STYLES, node_technology

#: Hard ceiling on (n_vth x n_tox) points in one sweep/optimize request.
MAX_GRID_POINTS = 4096

#: Hard ceiling on one axis (keeps union grids bounded too).
MAX_AXIS_POINTS = 256

#: Hard ceiling on a calibration trace length.
MAX_TRACE_ACCESSES = 5_000_000

#: Hard ceiling on a custom workload footprint (bytes).
MAX_FOOTPRINT_BYTES = 1 << 30

#: Default ceiling on the units one campaign may expand to (a daemon can
#: lower it via ``ServiceConfig.campaign_max_units``; a spec can lower —
#: never raise — it via its own ``max_units`` field).
MAX_CAMPAIGN_UNITS = 2048

#: Longest server-side block a ``?wait=`` query may request (seconds).
MAX_WAIT_SECONDS = 30.0

#: Accepted scheme spellings -> enum.
SCHEMES: Dict[str, Scheme] = {
    "1": Scheme.PER_COMPONENT,
    "2": Scheme.CELL_VS_PERIPHERY,
    "3": Scheme.UNIFORM,
}


def error_envelope(
    error_type: str, message: str, status: int, **extra
) -> Dict[str, object]:
    """The structured error body every non-2xx response carries."""
    payload: Dict[str, object] = {
        "type": error_type,
        "message": message,
        "status": status,
    }
    payload.update(extra)
    return {"error": payload}


def _require_object(body, what: str) -> dict:
    if not isinstance(body, dict):
        raise ValidationError(
            f"{what} must be a JSON object, got {type(body).__name__}"
        )
    return body


def _reject_unknown_keys(body: dict, allowed: Tuple[str, ...], what: str):
    unknown = sorted(set(body) - set(allowed))
    if unknown:
        raise ValidationError(
            f"{what} has unknown field(s) {unknown}; allowed: {sorted(allowed)}"
        )


def _number(body: dict, key: str, what: str, default=None, minimum=None,
            maximum=None) -> float:
    if key not in body:
        if default is not None:
            return default
        raise ValidationError(f"{what} is missing required field {key!r}")
    value = body[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(
            f"{what}.{key} must be a number, got {type(value).__name__}"
        )
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{what}.{key} must be finite, got {value}")
    if minimum is not None and value < minimum:
        raise ValidationError(
            f"{what}.{key} = {value} is below the minimum {minimum}"
        )
    if maximum is not None and value > maximum:
        raise ValidationError(
            f"{what}.{key} = {value} is above the maximum {maximum}"
        )
    return value


def _integer(body: dict, key: str, what: str, default=None, minimum=None,
             maximum=None) -> int:
    value = _number(body, key, what, default=default, minimum=minimum,
                    maximum=maximum)
    if value != int(value):
        raise ValidationError(f"{what}.{key} must be an integer, got {value}")
    return int(value)


def _technology(body: dict, what: str) -> Tuple[int, str, Technology]:
    """Decode the optional ``node``/``scaling_style`` fields.

    Returns ``(node, scaling_style, Technology)``; the default is the
    paper's 65 nm anchor under the "itrs" style (at 65 nm both styles
    are the identical anchor).  Unknown nodes and styles are structured
    400s naming the supported values.
    """
    raw_node = body.get("node", 65)
    if isinstance(raw_node, bool) or not isinstance(raw_node, int):
        raise ValidationError(
            f"{what}.node must be an integer nanometre node, got "
            f"{type(raw_node).__name__}"
        )
    if raw_node not in NODES:
        raise ValidationError(
            f"{what}.node = {raw_node} nm is not a supported technology "
            f"node; expected one of {list(NODES)}"
        )
    style = body.get("scaling_style", "itrs")
    if not isinstance(style, str) or style not in SCALING_STYLES:
        raise ValidationError(
            f"{what}.scaling_style must be one of {list(SCALING_STYLES)}, "
            f"got {style!r}"
        )
    return raw_node, style, node_technology(raw_node, style)


def _axis(body: dict, key: str, what: str, low: float, high: float,
          unit: str) -> Optional[Tuple[float, ...]]:
    """Decode one sweep axis: a list of values or {min, max, points}.

    Returns the sorted, de-duplicated axis, or None when absent.
    """
    if key not in body:
        return None
    raw = body[key]
    if isinstance(raw, dict):
        _reject_unknown_keys(raw, ("min", "max", "points"), f"{what}.{key}")
        lower = _number(raw, "min", f"{what}.{key}", minimum=low, maximum=high)
        upper = _number(raw, "max", f"{what}.{key}", minimum=low, maximum=high)
        points = _integer(raw, "points", f"{what}.{key}", minimum=2,
                          maximum=MAX_AXIS_POINTS)
        if upper <= lower:
            raise ValidationError(
                f"{what}.{key}: max ({upper}) must exceed min ({lower})"
            )
        step = (upper - lower) / (points - 1)
        values = [lower + index * step for index in range(points)]
        values[-1] = upper
    elif isinstance(raw, list):
        if not raw:
            raise ValidationError(f"{what}.{key} must not be empty")
        if len(raw) > MAX_AXIS_POINTS:
            raise ValidationError(
                f"{what}.{key} has {len(raw)} points; the limit is "
                f"{MAX_AXIS_POINTS}",
                status=413,
            )
        values = []
        for value in raw:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValidationError(
                    f"{what}.{key} entries must be numbers, got "
                    f"{type(value).__name__}"
                )
            value = float(value)
            if not math.isfinite(value):
                raise ValidationError(f"{what}.{key} entries must be finite")
            if not low <= value <= high:
                raise ValidationError(
                    f"{what}.{key} value {value} {unit} is outside the "
                    f"node's design box [{low:g}, {high:g}] {unit}"
                )
            values.append(value)
    else:
        raise ValidationError(
            f"{what}.{key} must be a list or a {{min, max, points}} object"
        )
    return tuple(sorted(set(values)))


def _cache_config(body: dict, what: str) -> CacheConfig:
    raw = _require_object(body.get("cache"), f"{what}.cache")
    _reject_unknown_keys(
        raw, ("size_kb", "block_bytes", "associativity", "output_bits",
              "name"), f"{what}.cache"
    )
    size_kb = _number(raw, "size_kb", f"{what}.cache", minimum=1,
                      maximum=64 * 1024)
    block_bytes = _integer(raw, "block_bytes", f"{what}.cache", default=32,
                           minimum=8, maximum=512)
    associativity = _integer(raw, "associativity", f"{what}.cache", default=2,
                             minimum=1, maximum=64)
    output_bits = _integer(raw, "output_bits", f"{what}.cache", default=64,
                           minimum=8, maximum=1024)
    name = raw.get("name", f"cache-{size_kb:g}K")
    if not isinstance(name, str) or len(name) > 64:
        raise ValidationError(
            f"{what}.cache.name must be a string of at most 64 characters"
        )
    # CacheConfig's own __post_init__ performs the deep geometry checks;
    # its ConfigurationError is mapped to a 400 by the transport layer.
    return CacheConfig(
        size_bytes=int(size_kb * 1024),
        block_bytes=block_bytes,
        associativity=associativity,
        output_bits=output_bits,
        name=name,
    )


def _knobs(body: dict, key: str, what: str, default: Optional[Knobs],
           technology: Optional[Technology] = None) -> Optional[Knobs]:
    if key not in body:
        return default
    box = technology if technology is not None else node_technology(65)
    raw = _require_object(body[key], f"{what}.{key}")
    _reject_unknown_keys(raw, ("vth", "tox"), f"{what}.{key}")
    vth = _number(raw, "vth", f"{what}.{key}", minimum=box.vth_min,
                  maximum=box.vth_max)
    tox = _number(raw, "tox", f"{what}.{key}", minimum=box.tox_min_a,
                  maximum=box.tox_max_a)
    return knobs(vth, tox)


def _assoc(body: dict, key: str, what: str) -> Optional[int]:
    """Decode one optional associativity field (a surface power of two)."""
    if key not in body:
        return None
    value = body[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(
            f"{what}.{key} must be an integer, got {type(value).__name__}"
        )
    if value not in SURFACE_ASSOCS:
        raise ValidationError(
            f"{what}.{key} = {value} is not a profiled associativity; "
            f"expected one of {list(SURFACE_ASSOCS)}"
        )
    return value


def _assoc_list(body: dict, key: str, what: str) -> Optional[Tuple[int, ...]]:
    """Decode one optional associativity axis (ascending, no duplicates)."""
    if key not in body:
        return None
    raw = body[key]
    if not isinstance(raw, list) or not raw or len(raw) > len(SURFACE_ASSOCS):
        raise ValidationError(
            f"{what}.{key} must be a list of 1..{len(SURFACE_ASSOCS)} "
            f"associativities"
        )
    values = []
    for value in raw:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(
                f"{what}.{key} entries must be integers, got "
                f"{type(value).__name__}"
            )
        if value not in SURFACE_ASSOCS:
            raise ValidationError(
                f"{what}.{key} value {value} is not a profiled "
                f"associativity; expected a subset of {list(SURFACE_ASSOCS)}"
            )
        values.append(value)
    if values != sorted(set(values)):
        raise ValidationError(
            f"{what}.{key} must be strictly ascending without duplicates"
        )
    return tuple(values)


def _check_expansion_budget(
    factors: Tuple[Tuple[int, str], ...],
    limit: int,
    what: str,
    verb: str = "requests",
    unit_label: str = "grid points",
    status: int = 413,
) -> int:
    """Reject an axis product past ``limit``, naming every factor.

    The one admission-control primitive behind both the sweep/optimize
    grid budget and the campaign expansion budget: the error names the
    offending axis product (``3 workloads x 2 policies x ...``) so a
    client can see exactly which axis to shrink.  Returns the product.
    """
    total = 1
    for count, _ in factors:
        total *= count
    if total > limit:
        product = " x ".join(f"{count} {label}" for count, label in factors)
        raise ValidationError(
            f"{what} {verb} {total} {unit_label} ({product}); "
            f"the limit is {limit}",
            status=status,
        )
    return total


def _check_grid_budget(vths: Tuple[float, ...], toxes: Tuple[float, ...],
                       what: str) -> None:
    _check_expansion_budget(
        ((len(vths), "Vth"), (len(toxes), "Tox")), MAX_GRID_POINTS, what
    )


@dataclass(frozen=True)
class SweepRequest:
    """One validated ``POST /v1/sweep`` body."""

    config: CacheConfig
    vths: Tuple[float, ...]
    toxes_angstrom: Tuple[float, ...]
    components: Tuple[str, ...]
    node: int = 65
    scaling_style: str = "itrs"


def parse_sweep(body) -> SweepRequest:
    body = _require_object(body, "sweep request")
    _reject_unknown_keys(body, ("cache", "vth", "tox", "components", "node",
                                "scaling_style"), "sweep request")
    config = _cache_config(body, "sweep")
    node, style, tech = _technology(body, "sweep")
    vths = _axis(body, "vth", "sweep", tech.vth_min, tech.vth_max, "V")
    toxes = _axis(body, "tox", "sweep", tech.tox_min_a, tech.tox_max_a, "A")
    if vths is None or toxes is None:
        raise ValidationError(
            "sweep requires both 'vth' and 'tox' axes (a list of values "
            "or {min, max, points})"
        )
    _check_grid_budget(vths, toxes, "sweep")
    raw_components = body.get("components")
    if raw_components is None:
        components = COMPONENT_NAMES
    else:
        if not isinstance(raw_components, list) or not raw_components:
            raise ValidationError(
                "sweep.components must be a non-empty list of names"
            )
        for name in raw_components:
            if name not in COMPONENT_NAMES:
                raise ValidationError(
                    f"unknown component {name!r}; expected a subset of "
                    f"{list(COMPONENT_NAMES)}"
                )
        components = tuple(
            name for name in COMPONENT_NAMES if name in raw_components
        )
    return SweepRequest(
        config=config, vths=vths, toxes_angstrom=toxes,
        components=components, node=node, scaling_style=style,
    )


@dataclass(frozen=True)
class OptimizeRequest:
    """One validated ``POST /v1/optimize`` body."""

    config: CacheConfig
    scheme: Scheme
    max_access_time: float
    vths: Optional[Tuple[float, ...]]
    toxes_angstrom: Optional[Tuple[float, ...]]
    node: int = 65
    scaling_style: str = "itrs"


def parse_optimize(body) -> OptimizeRequest:
    body = _require_object(body, "optimize request")
    _reject_unknown_keys(body, ("cache", "scheme", "target_ps", "vth", "tox",
                                "node", "scaling_style"), "optimize request")
    config = _cache_config(body, "optimize")
    node, style, tech = _technology(body, "optimize")
    raw_scheme = body.get("scheme", "2")
    scheme = SCHEMES.get(str(raw_scheme))
    if scheme is None:
        raise ValidationError(
            f"unknown scheme {raw_scheme!r}; expected one of "
            f"{sorted(SCHEMES)}"
        )
    target_ps = _number(body, "target_ps", "optimize", minimum=1.0,
                        maximum=1e6)
    vths = _axis(body, "vth", "optimize", tech.vth_min, tech.vth_max, "V")
    toxes = _axis(body, "tox", "optimize", tech.tox_min_a, tech.tox_max_a,
                  "A")
    if (vths is None) != (toxes is None):
        raise ValidationError(
            "optimize needs either both 'vth' and 'tox' axes or neither "
            "(the default design grid)"
        )
    if vths is not None:
        _check_grid_budget(vths, toxes, "optimize")
    return OptimizeRequest(
        config=config,
        scheme=scheme,
        max_access_time=target_ps * 1e-12,
        vths=vths,
        toxes_angstrom=toxes,
        node=node,
        scaling_style=style,
    )


@dataclass(frozen=True)
class AmatRequest:
    """One validated ``POST /v1/amat`` body."""

    workload: Optional[str]
    blend_weights: Optional[Tuple[Tuple[str, float], ...]]
    l1_size_kb: float
    l2_size_kb: float
    l1_knobs: Knobs
    l2_knobs: Knobs
    memory_latency: Optional[float]
    policy: str
    l1_assoc: Optional[int] = None
    l2_assoc: Optional[int] = None
    node: int = 65
    scaling_style: str = "itrs"


def parse_amat(body) -> AmatRequest:
    from repro.optimize.two_level import default_l1_knobs, default_l2_knobs

    body = _require_object(body, "amat request")
    _reject_unknown_keys(
        body, ("workload", "l1_size_kb", "l2_size_kb", "l1_knobs", "l2_knobs",
               "memory_latency_ps", "policy", "l1_assoc", "l2_assoc", "node",
               "scaling_style"),
        "amat request"
    )
    node, style, tech = _technology(body, "amat")
    raw_workload = body.get("workload", "spec2000")
    workload: Optional[str] = None
    blend: Optional[Tuple[Tuple[str, float], ...]] = None
    if isinstance(raw_workload, str):
        if raw_workload not in STANDARD_WORKLOADS:
            raise ValidationError(
                f"unknown workload {raw_workload!r}; expected one of "
                f"{sorted(STANDARD_WORKLOADS)}"
            )
        workload = raw_workload
    elif isinstance(raw_workload, dict):
        if not raw_workload:
            raise ValidationError("amat.workload blend must not be empty")
        pairs = []
        for name, weight in raw_workload.items():
            if name not in STANDARD_WORKLOADS:
                raise ValidationError(
                    f"unknown workload {name!r} in blend; expected a subset "
                    f"of {sorted(STANDARD_WORKLOADS)}"
                )
            if isinstance(weight, bool) or not isinstance(
                weight, (int, float)
            ) or not math.isfinite(float(weight)) or weight < 0:
                raise ValidationError(
                    f"amat.workload[{name!r}] must be a non-negative number"
                )
            pairs.append((name, float(weight)))
        if sum(weight for _, weight in pairs) <= 0:
            raise ValidationError(
                "amat.workload blend weights must sum to a positive value"
            )
        blend = tuple(sorted(pairs))
    else:
        raise ValidationError(
            "amat.workload must be a suite name or a {name: weight} blend"
        )
    l1_size_kb = _number(body, "l1_size_kb", "amat", default=16.0, minimum=1,
                         maximum=1024)
    l2_size_kb = _number(body, "l2_size_kb", "amat", default=1024.0,
                         minimum=32, maximum=64 * 1024)
    return AmatRequest(
        workload=workload,
        blend_weights=blend,
        l1_size_kb=l1_size_kb,
        l2_size_kb=l2_size_kb,
        l1_knobs=_knobs(body, "l1_knobs", "amat", default_l1_knobs(tech),
                        technology=tech),
        l2_knobs=_knobs(body, "l2_knobs", "amat", default_l2_knobs(tech),
                        technology=tech),
        memory_latency=(
            _number(body, "memory_latency_ps", "amat", minimum=1.0,
                    maximum=1e7) * 1e-12
            if "memory_latency_ps" in body
            else None
        ),
        policy=_policy(body, "amat"),
        l1_assoc=_assoc(body, "l1_assoc", "amat"),
        l2_assoc=_assoc(body, "l2_assoc", "amat"),
        node=node,
        scaling_style=style,
    )


def _policy(body: dict, what: str) -> str:
    policy = body.get("policy", "lru")
    if policy not in ("lru", "fifo", "random"):
        raise ValidationError(
            f"unknown replacement policy {policy!r}; expected 'lru', "
            f"'fifo' or 'random'"
        )
    return policy


@dataclass(frozen=True)
class CalibrateRequest:
    """One validated ``POST /v1/calibrate`` body."""

    spec: WorkloadSpec
    n_accesses: int
    seed: int
    policy: str
    l1_grid_kb: Tuple[int, ...]
    l2_grid_kb: Tuple[int, ...]
    l1_assocs: Optional[Tuple[int, ...]] = None
    l2_assocs: Optional[Tuple[int, ...]] = None


def _workload_spec(raw, what: str) -> WorkloadSpec:
    if isinstance(raw, str):
        spec = STANDARD_WORKLOADS.get(raw)
        if spec is None:
            raise ValidationError(
                f"unknown workload {raw!r}; expected one of "
                f"{sorted(STANDARD_WORKLOADS)}"
            )
        return spec
    raw = _require_object(raw, what)
    field_names = tuple(
        field.name for field in dataclass_fields(WorkloadSpec)
    )
    _reject_unknown_keys(raw, field_names, what)
    if "name" not in raw or not isinstance(raw["name"], str):
        raise ValidationError(f"{what}.name must be a string")
    if len(raw["name"]) > 64:
        raise ValidationError(f"{what}.name must be at most 64 characters")
    arguments = {"name": raw["name"]}
    for key in ("footprint_bytes", "hot_bytes", "warm_bytes"):
        arguments[key] = _integer(raw, key, what, minimum=0,
                                  maximum=MAX_FOOTPRINT_BYTES)
    for key, default in (
        ("hot_fraction", None), ("stream_fraction", None),
        ("cold_fraction", None), ("hot_zipf_alpha", 1.2),
        ("write_fraction", 0.3),
    ):
        arguments[key] = _number(raw, key, what, default=default, minimum=0.0,
                                 maximum=10.0)
    # WorkloadSpec's __post_init__ enforces the cross-field invariants;
    # its SimulationError maps to a 400.
    return WorkloadSpec(**arguments)


def _grid_kb(body: dict, key: str, what: str,
             default: Tuple[int, ...]) -> Tuple[int, ...]:
    if key not in body:
        return default
    raw = body[key]
    if not isinstance(raw, list) or not raw or len(raw) > 16:
        raise ValidationError(
            f"{what}.{key} must be a list of 1..16 sizes in KiB"
        )
    sizes = []
    for value in raw:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"{what}.{key} entries must be integers")
        if not 1 <= value <= 64 * 1024:
            raise ValidationError(
                f"{what}.{key} value {value} KiB is outside [1, 65536]"
            )
        sizes.append(value)
    if sizes != sorted(set(sizes)):
        raise ValidationError(
            f"{what}.{key} must be strictly ascending without duplicates"
        )
    return tuple(sizes)


def parse_calibrate(body) -> CalibrateRequest:
    from repro.archsim.missmodel import L1_GRID_KB, L2_GRID_KB

    body = _require_object(body, "calibrate request")
    _reject_unknown_keys(
        body, ("workload", "n_accesses", "seed", "policy", "l1_grid_kb",
               "l2_grid_kb", "l1_assocs", "l2_assocs"), "calibrate request"
    )
    if "workload" not in body:
        raise ValidationError(
            "calibrate requires 'workload' (a suite name or an inline "
            "workload spec)"
        )
    spec = _workload_spec(body["workload"], "calibrate.workload")
    n_accesses = _integer(body, "n_accesses", "calibrate", default=300_000,
                          minimum=1_000)
    if n_accesses > MAX_TRACE_ACCESSES:
        raise ValidationError(
            f"calibrate.n_accesses = {n_accesses} exceeds the limit of "
            f"{MAX_TRACE_ACCESSES}",
            status=413,
        )
    return CalibrateRequest(
        spec=spec,
        n_accesses=n_accesses,
        seed=_integer(body, "seed", "calibrate", default=1, minimum=0,
                      maximum=2**31 - 1),
        policy=_policy(body, "calibrate"),
        l1_grid_kb=_grid_kb(body, "l1_grid_kb", "calibrate", L1_GRID_KB),
        l2_grid_kb=_grid_kb(body, "l2_grid_kb", "calibrate", L2_GRID_KB),
        l1_assocs=_assoc_list(body, "l1_assocs", "calibrate"),
        l2_assocs=_assoc_list(body, "l2_assocs", "calibrate"),
    )


# ---------------------------------------------------------------------------
# Query strings
# ---------------------------------------------------------------------------

def parse_wait(query: Dict[str, list], what: str) -> float:
    """Decode an optional ``?wait=<seconds>`` long-poll parameter.

    Returns 0.0 when absent; the value is capped at
    :data:`MAX_WAIT_SECONDS` so a client cannot pin a handler thread
    indefinitely.
    """
    raw = query.get("wait")
    if not raw:
        return 0.0
    value = raw[-1]
    try:
        seconds = float(value)
    except ValueError:
        raise ValidationError(
            f"{what}: query parameter 'wait' must be a number of seconds, "
            f"got {value!r}"
        )
    if not math.isfinite(seconds) or seconds < 0:
        raise ValidationError(
            f"{what}: query parameter 'wait' must be a finite non-negative "
            f"number of seconds, got {value!r}"
        )
    return min(seconds, MAX_WAIT_SECONDS)


def parse_flag(query: Dict[str, list], key: str, what: str,
               default: bool = True) -> bool:
    """Decode an optional boolean query parameter (``0/1/true/false``)."""
    raw = query.get(key)
    if not raw:
        return default
    value = raw[-1].lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise ValidationError(
        f"{what}: query parameter {key!r} must be a boolean "
        f"(0/1/true/false), got {raw[-1]!r}"
    )


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------

def _campaign_shape_axes(raw: dict, what: str):
    """Decode the (size, assoc) axes of a matrix/amat block.

    Every point must lie on the dense profile surfaces — that is what
    makes the whole block cost one trace pass per (workload, policy).
    """
    from repro.archsim.missmodel import (
        L1_GRID_KB,
        L2_GRID_KB,
        REFERENCE_L1_ASSOC,
        REFERENCE_L1_BLOCK,
        REFERENCE_L2_ASSOC,
        REFERENCE_L2_BLOCK,
    )
    from repro.perf.profile_store import covers_point

    l1_sizes = _grid_kb(raw, "l1_sizes_kb", what, L1_GRID_KB)
    l2_sizes = _grid_kb(raw, "l2_sizes_kb", what, L2_GRID_KB)
    l1_assocs = _assoc_list(raw, "l1_assocs", what) or (REFERENCE_L1_ASSOC,)
    l2_assocs = _assoc_list(raw, "l2_assocs", what) or (REFERENCE_L2_ASSOC,)
    for level, sizes, assocs, block in (
        ("l1", l1_sizes, l1_assocs, REFERENCE_L1_BLOCK),
        ("l2", l2_sizes, l2_assocs, REFERENCE_L2_BLOCK),
    ):
        for size_kb in sizes:
            for assoc in assocs:
                if not covers_point(level, size_kb * 1024, assoc,
                                    block_bytes=block):
                    raise ValidationError(
                        f"{what}: ({level}, {size_kb} KiB, {assoc}-way) is "
                        f"not on the profiled surface grid (sizes must "
                        f"divide into a profiled power-of-two set count)"
                    )
    return l1_sizes, l1_assocs, l2_sizes, l2_assocs


def parse_campaign(body, max_units: int = MAX_CAMPAIGN_UNITS):
    """Validate one ``POST /v1/campaigns`` body into a CampaignSpec.

    Enforces the expansion budget: every block's unit count and the
    campaign total are checked against ``max_units``, and an over-budget
    spec gets a structured 400 naming the offending axis product.
    """
    from repro.campaign.spec import (
        AmatBlock,
        CampaignCalibration,
        CampaignConstraints,
        CampaignSpec,
        MatrixBlock,
        OptimizeBlock,
        SweepBlock,
    )

    body = _require_object(body, "campaign request")
    _reject_unknown_keys(
        body, ("name", "workloads", "policies", "calibration", "matrix",
               "amat", "sweeps", "optimize", "constraints", "max_units",
               "nodes", "scaling_style"),
        "campaign request"
    )
    name = body.get("name", "campaign")
    if not isinstance(name, str) or not name or len(name) > 64:
        raise ValidationError(
            "campaign.name must be a non-empty string of at most "
            "64 characters"
        )
    limit = max_units
    if "max_units" in body:
        # A spec may tighten the budget for itself, never loosen the
        # daemon's own cap.
        limit = min(limit, _integer(body, "max_units", "campaign",
                                    minimum=1))

    raw_workloads = body.get("workloads", ["spec2000"])
    if not isinstance(raw_workloads, list) or not raw_workloads \
            or len(raw_workloads) > 8:
        raise ValidationError(
            "campaign.workloads must be a list of 1..8 workloads (suite "
            "names or inline specs)"
        )
    workloads = []
    seen_names = set()
    for index, raw in enumerate(raw_workloads):
        spec = _workload_spec(raw, f"campaign.workloads[{index}]")
        if spec.name in seen_names:
            raise ValidationError(
                f"campaign.workloads has duplicate workload name "
                f"{spec.name!r}"
            )
        seen_names.add(spec.name)
        workloads.append(spec)

    raw_policies = body.get("policies", ["lru"])
    if not isinstance(raw_policies, list) or not raw_policies:
        raise ValidationError(
            "campaign.policies must be a non-empty list of policies"
        )
    policies = []
    for policy in raw_policies:
        if policy not in ("lru", "fifo", "random"):
            raise ValidationError(
                f"unknown replacement policy {policy!r} in "
                f"campaign.policies; expected 'lru', 'fifo' or 'random'"
            )
        if policy in policies:
            raise ValidationError(
                f"campaign.policies has duplicate policy {policy!r}"
            )
        policies.append(policy)

    # The technology axis: one scaling style, 1..N nodes.  Circuit-level
    # blocks (amat, sweeps, optimize) expand once per node; shared axes
    # and knobs must sit inside *every* listed node's design box.
    raw_nodes = body.get("nodes", [65])
    if not isinstance(raw_nodes, list) or not raw_nodes \
            or len(raw_nodes) > len(NODES):
        raise ValidationError(
            f"campaign.nodes must be a list of 1..{len(NODES)} technology "
            f"nodes (a subset of {list(NODES)})"
        )
    nodes: list = []
    for value in raw_nodes:
        if isinstance(value, bool) or not isinstance(value, int) \
                or value not in NODES:
            raise ValidationError(
                f"campaign.nodes value {value!r} is not a supported "
                f"technology node; expected a subset of {list(NODES)}"
            )
        if value in nodes:
            raise ValidationError(
                f"campaign.nodes has duplicate node {value}"
            )
        nodes.append(value)
    style = body.get("scaling_style", "itrs")
    if not isinstance(style, str) or style not in SCALING_STYLES:
        raise ValidationError(
            f"campaign.scaling_style must be one of "
            f"{list(SCALING_STYLES)}, got {style!r}"
        )
    lead_tech = node_technology(nodes[0], style)

    def _check_node_boxes(vths, toxes_a, what: str) -> None:
        """Axes shared across the node axis must fit every node's box."""
        for node in nodes[1:]:
            tech = node_technology(node, style)
            for value in vths:
                if not tech.vth_min <= value <= tech.vth_max:
                    raise ValidationError(
                        f"{what}: Vth {value:g} V is outside the {node} nm "
                        f"design box [{tech.vth_min:g}, {tech.vth_max:g}] V"
                    )
            for value in toxes_a:
                if not (tech.tox_min_a - 1e-9 <= value
                        <= tech.tox_max_a + 1e-9):
                    raise ValidationError(
                        f"{what}: Tox {value:g} A is outside the {node} nm "
                        f"design box [{tech.tox_min_a:g}, "
                        f"{tech.tox_max_a:g}] A"
                    )

    raw_calibration = _require_object(
        body.get("calibration", {}), "campaign.calibration"
    )
    _reject_unknown_keys(raw_calibration, ("n_accesses", "seed"),
                         "campaign.calibration")
    n_accesses = _integer(raw_calibration, "n_accesses",
                          "campaign.calibration", default=300_000,
                          minimum=1_000)
    if n_accesses > MAX_TRACE_ACCESSES:
        raise ValidationError(
            f"campaign.calibration.n_accesses = {n_accesses} exceeds the "
            f"limit of {MAX_TRACE_ACCESSES}",
            status=413,
        )
    calibration = CampaignCalibration(
        n_accesses=n_accesses,
        seed=_integer(raw_calibration, "seed", "campaign.calibration",
                      default=1, minimum=0, maximum=2**31 - 1),
    )

    matrix = None
    if "matrix" in body:
        raw = _require_object(body["matrix"], "campaign.matrix")
        _reject_unknown_keys(
            raw, ("l1_sizes_kb", "l1_assocs", "l2_sizes_kb", "l2_assocs"),
            "campaign.matrix"
        )
        l1_sizes, l1_assocs, l2_sizes, l2_assocs = _campaign_shape_axes(
            raw, "campaign.matrix"
        )
        matrix = MatrixBlock(
            l1_sizes_kb=l1_sizes, l1_assocs=l1_assocs,
            l2_sizes_kb=l2_sizes, l2_assocs=l2_assocs,
        )

    amat = None
    if "amat" in body:
        raw = _require_object(body["amat"], "campaign.amat")
        _reject_unknown_keys(
            raw, ("l1_sizes_kb", "l1_assocs", "l2_sizes_kb", "l2_assocs",
                  "l1_knobs", "l2_knobs", "memory_latency_ps"),
            "campaign.amat"
        )
        l1_sizes, l1_assocs, l2_sizes, l2_assocs = _campaign_shape_axes(
            raw, "campaign.amat"
        )
        amat = AmatBlock(
            l1_sizes_kb=l1_sizes, l1_assocs=l1_assocs,
            l2_sizes_kb=l2_sizes, l2_assocs=l2_assocs,
            # None = "each node's own default knobs" (resolved per node
            # by the planner); explicit knobs are shared by every node
            # and must therefore fit every node's box.
            l1_knobs=_knobs(raw, "l1_knobs", "campaign.amat", None,
                            technology=lead_tech),
            l2_knobs=_knobs(raw, "l2_knobs", "campaign.amat", None,
                            technology=lead_tech),
            memory_latency_ps=(
                _number(raw, "memory_latency_ps", "campaign.amat",
                        minimum=1.0, maximum=1e7)
                if "memory_latency_ps" in raw
                else None
            ),
        )
        for label, point in (("l1_knobs", amat.l1_knobs),
                             ("l2_knobs", amat.l2_knobs)):
            if point is not None:
                _check_node_boxes((point.vth,), (point.tox_angstrom,),
                                  f"campaign.amat.{label}")

    raw_sweeps = body.get("sweeps", [])
    if not isinstance(raw_sweeps, list) or len(raw_sweeps) > 64:
        raise ValidationError(
            "campaign.sweeps must be a list of at most 64 sweep blocks"
        )
    sweeps = []
    for index, raw in enumerate(raw_sweeps):
        if isinstance(raw, dict) and (
            "node" in raw or "scaling_style" in raw
        ):
            raise ValidationError(
                f"campaign.sweeps[{index}]: the technology axis is set at "
                f"the campaign level ('nodes'/'scaling_style'), not per "
                f"sweep block"
            )
        if isinstance(raw, dict):
            # Parse against the lead node's box; the remaining nodes are
            # checked below so every listed node can run the same axes.
            raw = dict(raw)
            raw["node"] = nodes[0]
            raw["scaling_style"] = style
        try:
            request = parse_sweep(raw)
        except ValidationError as error:
            raise ValidationError(
                f"campaign.sweeps[{index}]: {error}", status=error.status
            )
        _check_node_boxes(request.vths, request.toxes_angstrom,
                          f"campaign.sweeps[{index}]")
        sweeps.append(SweepBlock(
            config=request.config,
            vths=request.vths,
            toxes_angstrom=request.toxes_angstrom,
            components=request.components,
        ))

    optimize = None
    if "optimize" in body:
        raw = _require_object(body["optimize"], "campaign.optimize")
        _reject_unknown_keys(
            raw, ("caches", "schemes", "target_ps", "vth", "tox"),
            "campaign.optimize"
        )
        raw_caches = raw.get("caches")
        if not isinstance(raw_caches, list) or not raw_caches \
                or len(raw_caches) > 16:
            raise ValidationError(
                "campaign.optimize.caches must be a list of 1..16 cache "
                "configurations"
            )
        configs = tuple(
            _cache_config({"cache": entry},
                          f"campaign.optimize.caches[{index}]")
            for index, entry in enumerate(raw_caches)
        )
        raw_schemes = raw.get("schemes", ["1", "2", "3"])
        if not isinstance(raw_schemes, list) or not raw_schemes:
            raise ValidationError(
                "campaign.optimize.schemes must be a non-empty list of "
                "scheme codes"
            )
        schemes = []
        for raw_scheme in raw_schemes:
            code = str(raw_scheme)
            if code not in SCHEMES:
                raise ValidationError(
                    f"unknown scheme {raw_scheme!r} in "
                    f"campaign.optimize.schemes; expected one of "
                    f"{sorted(SCHEMES)}"
                )
            if code in schemes:
                raise ValidationError(
                    f"campaign.optimize.schemes has duplicate scheme "
                    f"{code!r}"
                )
            schemes.append(code)
        raw_targets = raw.get("target_ps")
        if raw_targets is None:
            raise ValidationError(
                "campaign.optimize requires 'target_ps' (a number or a "
                "list of numbers)"
            )
        if not isinstance(raw_targets, list):
            raw_targets = [raw_targets]
        if not raw_targets or len(raw_targets) > 16:
            raise ValidationError(
                "campaign.optimize.target_ps must be 1..16 delay targets"
            )
        targets = tuple(
            _number({"target_ps": value}, "target_ps",
                    f"campaign.optimize.target_ps[{index}]",
                    minimum=1.0, maximum=1e6)
            for index, value in enumerate(raw_targets)
        )
        vths = _axis(raw, "vth", "campaign.optimize", lead_tech.vth_min,
                     lead_tech.vth_max, "V")
        toxes = _axis(raw, "tox", "campaign.optimize", lead_tech.tox_min_a,
                      lead_tech.tox_max_a, "A")
        if (vths is None) != (toxes is None):
            raise ValidationError(
                "campaign.optimize needs either both 'vth' and 'tox' axes "
                "or neither (the default design grid)"
            )
        if vths is not None:
            _check_grid_budget(vths, toxes, "campaign.optimize")
            _check_node_boxes(vths, toxes, "campaign.optimize")
        optimize = OptimizeBlock(
            configs=configs, schemes=tuple(schemes), targets_ps=targets,
            vths=vths, toxes_angstrom=toxes,
        )

    constraints = CampaignConstraints()
    if "constraints" in body:
        raw = _require_object(body["constraints"], "campaign.constraints")
        _reject_unknown_keys(raw, ("max_amat_ps", "max_leakage_mw"),
                             "campaign.constraints")
        constraints = CampaignConstraints(
            max_amat_ps=(
                _number(raw, "max_amat_ps", "campaign.constraints",
                        minimum=1.0, maximum=1e7)
                if "max_amat_ps" in raw else None
            ),
            max_leakage_mw=(
                _number(raw, "max_leakage_mw", "campaign.constraints",
                        minimum=0.0, maximum=1e6)
                if "max_leakage_mw" in raw else None
            ),
        )
        if constraints.max_amat_ps is not None \
                or constraints.max_leakage_mw is not None:
            if amat is None:
                raise ValidationError(
                    "campaign.constraints only applies to an 'amat' block"
                )

    if matrix is None and amat is None and not sweeps and optimize is None:
        raise ValidationError(
            "campaign needs at least one of 'matrix', 'amat', 'sweeps' or "
            "'optimize'"
        )

    # -- expansion budget: per block, then the campaign total --------------
    n_workloads, n_policies = len(workloads), len(policies)
    block_counts = []
    if matrix is not None or amat is not None:
        block_counts.append(("profile", n_workloads * n_policies))
    if matrix is not None:
        shape_points = (
            len(matrix.l1_sizes_kb) * len(matrix.l1_assocs)
            + len(matrix.l2_sizes_kb) * len(matrix.l2_assocs)
        )
        count = _check_expansion_budget(
            ((n_workloads, "workloads"), (n_policies, "policies"),
             (shape_points, "(level, size, assoc) points")),
            limit, "campaign.matrix", verb="expands to",
            unit_label="units", status=400,
        )
        block_counts.append(("matrix", count))
    n_nodes = len(nodes)
    if amat is not None:
        count = _check_expansion_budget(
            ((n_workloads, "workloads"), (n_policies, "policies"),
             (n_nodes, "nodes"),
             (len(amat.l1_sizes_kb), "l1_sizes_kb"),
             (len(amat.l1_assocs), "l1_assocs"),
             (len(amat.l2_sizes_kb), "l2_sizes_kb"),
             (len(amat.l2_assocs), "l2_assocs")),
            limit, "campaign.amat", verb="expands to",
            unit_label="units", status=400,
        )
        block_counts.append(("amat", count))
    if sweeps:
        count = _check_expansion_budget(
            ((len(sweeps), "sweep blocks"), (n_nodes, "nodes")),
            limit, "campaign.sweeps", verb="expands to",
            unit_label="units", status=400,
        )
        block_counts.append(("sweeps", count))
    if optimize is not None:
        count = _check_expansion_budget(
            ((len(optimize.configs), "caches"),
             (len(optimize.schemes), "schemes"),
             (len(optimize.targets_ps), "delay targets"),
             (n_nodes, "nodes")),
            limit, "campaign.optimize", verb="expands to",
            unit_label="units", status=400,
        )
        block_counts.append(("optimize", count))
    total = sum(count for _, count in block_counts)
    if total > limit:
        parts = " + ".join(
            f"{count} {label}" for label, count in block_counts
        )
        raise ValidationError(
            f"campaign expands to {total} units ({parts}); the limit is "
            f"{limit}",
            status=400,
        )

    return CampaignSpec(
        name=name,
        workloads=tuple(workloads),
        policies=tuple(policies),
        calibration=calibration,
        matrix=matrix,
        amat=amat,
        sweeps=tuple(sweeps),
        optimize=optimize,
        constraints=constraints,
        nodes=tuple(nodes),
        scaling_style=style,
    )
