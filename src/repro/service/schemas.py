"""Request decoding and validation for the service endpoints.

Every endpoint handler receives already-validated, typed request objects
from this module; nothing downstream ever sees raw client JSON.  All
failures raise :class:`repro.errors.ValidationError` carrying the HTTP
status the transport layer should answer with (400 for bad input, 413
for oversized grids/traces), so a malformed request can never take a
worker thread down or surface as a 500.

This module checks only JSON shape: types, unknown keys, finite numbers
and the admission limits below.  Whether a value is legal — the
per-node (Vth, Tox) design box, replacement policies, workload names,
nodes and scaling styles, scheme codes, blend weights, whole-byte cache
sizes — is decided by the library rule that owns it; :func:`_checked`
turns that rule's error into a 400 whose message starts with the
request field's path (``sweep.tox: Tox 5 Å is below ...``).

The limits here are the daemon's admission control: a single sweep is
capped at :data:`MAX_GRID_POINTS` grid points and a calibration at
:data:`MAX_TRACE_ACCESSES` accesses — enough for every legitimate use of
the engines, small enough that one request cannot monopolise the
process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import ReproError, ValidationError
from repro.archsim.missmodel import (
    REFERENCE_L1_ASSOC,
    REFERENCE_L2_ASSOC,
    blend_shares,
)
from repro.archsim.replacement import check_policy
from repro.archsim.workloads import WorkloadSpec, standard_workload
from repro.cache.assignment import COMPONENT_NAMES, Knobs, knobs
from repro.cache.config import CacheConfig, kib_to_bytes, l1_config, l2_config
from repro.optimize.schemes import Scheme, scheme_from_code
from repro.perf.profile_store import SURFACE_ASSOCS
from repro.technology.bptm import Technology, check_design_box
from repro.technology.nodes import NODES, node_technology

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

#: Accepted access-time targets (ps) of an optimize request or block.
_TARGET_PS_RANGE = {"minimum": 1.0, "maximum": 1e6}


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


def _checked(what: str, rule, *args, **kwargs):
    """Apply one library rule; its error becomes a 400 naming ``what``.

    A nested parser's :class:`ValidationError` keeps its status, so a
    413 inside a campaign block stays a 413.
    """
    try:
        return rule(*args, **kwargs)
    except ReproError as error:
        raise ValidationError(
            f"{what}: {error}", status=getattr(error, "status", 400)
        ) from None


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


def _finite(value, what: str) -> float:
    """A JSON number as a finite float; anything else is a 400.

    Integers past the float range (JSON allows any digit count) count as
    infinite rather than escaping as an ``OverflowError``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(
            f"{what} must be a number, got {type(value).__name__}"
        )
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValidationError(f"{what} must be a finite number")
    return value


def _in_range(value, what: str, minimum=None, maximum=None) -> float:
    value = _finite(value, what)
    if minimum is not None and value < minimum:
        raise ValidationError(
            f"{what} = {value} is below the minimum {minimum}"
        )
    if maximum is not None and value > maximum:
        raise ValidationError(
            f"{what} = {value} is above the maximum {maximum}"
        )
    return value


def _number(body: dict, key: str, what: str, default=None, minimum=None,
            maximum=None) -> float:
    if key not in body:
        if default is not None:
            return default
        raise ValidationError(f"{what} is missing required field {key!r}")
    return _in_range(body[key], f"{what}.{key}", minimum, maximum)


def _integer(body: dict, key: str, what: str, default=None, minimum=None,
             maximum=None) -> int:
    value = _number(body, key, what, default=default, minimum=minimum,
                    maximum=maximum)
    if value != int(value):
        raise ValidationError(f"{what}.{key} must be an integer, got {value}")
    return int(value)


def _scaling_style(body: dict, what: str) -> str:
    style = body.get("scaling_style", "itrs")
    if not isinstance(style, str):
        raise ValidationError(
            f"{what}.scaling_style must be a string, got "
            f"{type(style).__name__}"
        )
    # Every style has the anchor node, so this checks the style alone.
    _checked(f"{what}.scaling_style", node_technology, NODES[0], style)
    return style


def _node_technology(value, style: str, what: str) -> Technology:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(
            f"{what} must be an integer nanometre node, got "
            f"{type(value).__name__}"
        )
    return _checked(what, node_technology, value, style)


def _technology(body: dict, what: str) -> Tuple[int, str, Technology]:
    """Decode the optional ``node``/``scaling_style`` fields.

    Returns ``(node, scaling_style, Technology)``; the default is the
    paper's 65 nm anchor under the "itrs" style (at 65 nm both styles
    are the identical anchor).
    """
    style = _scaling_style(body, what)
    node = body.get("node", 65)
    return node, style, _node_technology(node, style, f"{what}.node")


def _axis(body: dict, key: str, what: str) -> Optional[Tuple[float, ...]]:
    """Decode one sweep axis: a list of values or {min, max, points}.

    Returns the sorted, de-duplicated axis, or None when absent.
    """
    if key not in body:
        return None
    raw = body[key]
    path = f"{what}.{key}"
    if isinstance(raw, dict):
        _reject_unknown_keys(raw, ("min", "max", "points"), path)
        lower = _number(raw, "min", path)
        upper = _number(raw, "max", path)
        points = _integer(raw, "points", path, minimum=2,
                          maximum=MAX_AXIS_POINTS)
        if upper <= lower:
            raise ValidationError(
                f"{path}: max ({upper}) must exceed min ({lower})"
            )
        step = (upper - lower) / (points - 1)
        values = [lower + index * step for index in range(points)]
        values[-1] = upper
    elif isinstance(raw, list):
        if not raw:
            raise ValidationError(f"{path} must not be empty")
        if len(raw) > MAX_AXIS_POINTS:
            raise ValidationError(
                f"{path} has {len(raw)} points; the limit is "
                f"{MAX_AXIS_POINTS}",
                status=413,
            )
        values = [_finite(value, f"{path} entries") for value in raw]
    else:
        raise ValidationError(
            f"{path} must be a list or a {{min, max, points}} object"
        )
    return tuple(sorted(set(values)))


def _check_boxes(technologies: Sequence[Technology], what: str,
                 vths: Sequence[float], toxes_a: Sequence[float]) -> None:
    """The library's design-box rule, once per listed node."""
    for technology in technologies:
        _checked(f"{what}.vth", check_design_box, technology, vths=vths)
        _checked(f"{what}.tox", check_design_box, technology,
                 toxes_a=toxes_a)


def _grid_axes(body: dict, what: str, technologies: Sequence[Technology],
               required: bool):
    """The ``vth``/``tox`` axes: in every node's box, within the budget.

    A sweep requires both; an optimize request takes both or neither
    (``(None, None)`` = the default design grid).
    """
    vths = _axis(body, "vth", what)
    toxes = _axis(body, "tox", what)
    if vths is None or toxes is None:
        if required:
            raise ValidationError(
                f"{what} requires both 'vth' and 'tox' axes (a list of "
                f"values or {{min, max, points}})"
            )
        if vths is not None or toxes is not None:
            raise ValidationError(
                f"{what} needs either both 'vth' and 'tox' axes or neither "
                f"(the default design grid)"
            )
        return None, None
    _check_boxes(technologies, what, vths, toxes)
    _check_expansion_budget(
        ((len(vths), "Vth"), (len(toxes), "Tox")), MAX_GRID_POINTS, what
    )
    return vths, toxes


def _cache_config(raw, path: str) -> CacheConfig:
    raw = _require_object(raw, path)
    _reject_unknown_keys(
        raw, ("size_kb", "block_bytes", "associativity", "output_bits",
              "name"), path
    )
    size_kb = _number(raw, "size_kb", path, minimum=1, maximum=64 * 1024)
    block_bytes = _integer(raw, "block_bytes", path, default=32,
                           minimum=8, maximum=512)
    associativity = _integer(raw, "associativity", path, default=2,
                             minimum=1, maximum=64)
    output_bits = _integer(raw, "output_bits", path, default=64,
                           minimum=8, maximum=1024)
    name = raw.get("name", f"cache-{size_kb:g}K")
    if not isinstance(name, str) or len(name) > 64:
        raise ValidationError(
            f"{path}.name must be a string of at most 64 characters"
        )
    # CacheConfig's own __post_init__ performs the deep geometry checks.
    return _checked(
        path,
        CacheConfig,
        size_bytes=_checked(f"{path}.size_kb", kib_to_bytes, size_kb),
        block_bytes=block_bytes,
        associativity=associativity,
        output_bits=output_bits,
        name=name,
    )


def _knobs(body: dict, key: str, what: str, default: Optional[Knobs],
           technologies: Sequence[Technology]) -> Optional[Knobs]:
    """One optional (Vth, Tox) point, in every listed node's box."""
    if key not in body:
        return default
    path = f"{what}.{key}"
    raw = _require_object(body[key], path)
    _reject_unknown_keys(raw, ("vth", "tox"), path)
    point = knobs(_number(raw, "vth", path), _number(raw, "tox", path))
    for technology in technologies:
        _checked(path, point.validate, technology)
    return point


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
    config = _cache_config(body.get("cache"), "sweep.cache")
    node, style, tech = _technology(body, "sweep")
    vths, toxes = _grid_axes(body, "sweep", (tech,), required=True)
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
                    f"sweep.components: unknown component {name!r}; "
                    f"expected a subset of {list(COMPONENT_NAMES)}"
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
    config = _cache_config(body.get("cache"), "optimize.cache")
    node, style, tech = _technology(body, "optimize")
    scheme = _checked("optimize.scheme", scheme_from_code,
                      str(body.get("scheme", "2")))
    target_ps = _number(body, "target_ps", "optimize", **_TARGET_PS_RANGE)
    vths, toxes = _grid_axes(body, "optimize", (tech,), required=False)
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
    l1: CacheConfig
    l2: CacheConfig
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
        _checked("amat.workload", standard_workload, raw_workload)
        workload = raw_workload
    elif isinstance(raw_workload, dict):
        weights = {
            name: _finite(weight, f"amat.workload[{name!r}]")
            for name, weight in raw_workload.items()
        }
        _checked("amat.workload", blend_shares, weights)
        blend = tuple(sorted(weights.items()))
    else:
        raise ValidationError(
            "amat.workload must be a suite name or a {name: weight} blend"
        )
    l1_size_kb = _number(body, "l1_size_kb", "amat", default=16.0, minimum=1,
                         maximum=1024)
    l2_size_kb = _number(body, "l2_size_kb", "amat", default=1024.0,
                         minimum=32, maximum=64 * 1024)
    l1_assoc = _assoc(body, "l1_assoc", "amat")
    l2_assoc = _assoc(body, "l2_assoc", "amat")
    return AmatRequest(
        workload=workload,
        blend_weights=blend,
        l1_size_kb=l1_size_kb,
        l2_size_kb=l2_size_kb,
        l1=_checked("amat.l1_size_kb", l1_config, l1_size_kb,
                    associativity=l1_assoc or REFERENCE_L1_ASSOC),
        l2=_checked("amat.l2_size_kb", l2_config, l2_size_kb,
                    associativity=l2_assoc or REFERENCE_L2_ASSOC),
        l1_knobs=_knobs(body, "l1_knobs", "amat", default_l1_knobs(tech),
                        (tech,)),
        l2_knobs=_knobs(body, "l2_knobs", "amat", default_l2_knobs(tech),
                        (tech,)),
        memory_latency=(
            _number(body, "memory_latency_ps", "amat", minimum=1.0,
                    maximum=1e7) * 1e-12
            if "memory_latency_ps" in body
            else None
        ),
        policy=_checked("amat.policy", check_policy,
                        body.get("policy", "lru")),
        l1_assoc=l1_assoc,
        l2_assoc=l2_assoc,
        node=node,
        scaling_style=style,
    )


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
        return _checked(what, standard_workload, raw)
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
    # WorkloadSpec's __post_init__ enforces the cross-field invariants.
    return _checked(what, WorkloadSpec, **arguments)


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


def _trace_length(body: dict, what: str) -> Tuple[int, int]:
    """A calibration's ``n_accesses`` (413 past the cap) and ``seed``."""
    n_accesses = _integer(body, "n_accesses", what, default=300_000,
                          minimum=1_000)
    if n_accesses > MAX_TRACE_ACCESSES:
        raise ValidationError(
            f"{what}.n_accesses = {n_accesses} exceeds the limit of "
            f"{MAX_TRACE_ACCESSES}",
            status=413,
        )
    seed = _integer(body, "seed", what, default=1, minimum=0,
                    maximum=2**31 - 1)
    return n_accesses, seed


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
    n_accesses, seed = _trace_length(body, "calibrate")
    return CalibrateRequest(
        spec=spec,
        n_accesses=n_accesses,
        seed=seed,
        policy=_checked("calibrate.policy", check_policy,
                        body.get("policy", "lru")),
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
        REFERENCE_L1_BLOCK,
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

    Each block reuses the single-request field parsers (sweeps go
    through :func:`parse_sweep` whole).  Enforces the expansion budget:
    every block's unit count and the campaign total are checked against
    ``max_units``, and an over-budget spec gets a structured 400 naming
    the offending axis product.
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
    for index, policy in enumerate(raw_policies):
        _checked(f"campaign.policies[{index}]", check_policy, policy)
        if policy in policies:
            raise ValidationError(
                f"campaign.policies has duplicate policy {policy!r}"
            )
        policies.append(policy)

    # The technology axis: one scaling style, 1..N nodes.  Circuit-level
    # blocks (amat, sweeps, optimize) expand once per node; shared axes
    # and knobs must sit inside *every* listed node's design box.
    style = _scaling_style(body, "campaign")
    raw_nodes = body.get("nodes", [65])
    if not isinstance(raw_nodes, list) or not raw_nodes \
            or len(raw_nodes) > len(NODES):
        raise ValidationError(
            f"campaign.nodes must be a list of 1..{len(NODES)} technology "
            f"nodes (a subset of {list(NODES)})"
        )
    nodes: list = []
    technologies = []
    for index, value in enumerate(raw_nodes):
        technologies.append(
            _node_technology(value, style, f"campaign.nodes[{index}]")
        )
        if value in nodes:
            raise ValidationError(
                f"campaign.nodes has duplicate node {value}"
            )
        nodes.append(value)

    raw_calibration = _require_object(
        body.get("calibration", {}), "campaign.calibration"
    )
    _reject_unknown_keys(raw_calibration, ("n_accesses", "seed"),
                         "campaign.calibration")
    n_accesses, seed = _trace_length(raw_calibration, "campaign.calibration")
    calibration = CampaignCalibration(n_accesses=n_accesses, seed=seed)

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
                            technologies),
            l2_knobs=_knobs(raw, "l2_knobs", "campaign.amat", None,
                            technologies),
            memory_latency_ps=(
                _number(raw, "memory_latency_ps", "campaign.amat",
                        minimum=1.0, maximum=1e7)
                if "memory_latency_ps" in raw
                else None
            ),
        )

    raw_sweeps = body.get("sweeps", [])
    if not isinstance(raw_sweeps, list) or len(raw_sweeps) > 64:
        raise ValidationError(
            "campaign.sweeps must be a list of at most 64 sweep blocks"
        )
    sweeps = []
    for index, raw in enumerate(raw_sweeps):
        what = f"campaign.sweeps[{index}]"
        if isinstance(raw, dict):
            if "node" in raw or "scaling_style" in raw:
                raise ValidationError(
                    f"{what}: the technology axis is set at the campaign "
                    f"level ('nodes'/'scaling_style'), not per sweep block"
                )
            # Parse against the lead node; the other nodes' boxes are
            # checked below so every listed node can run the same axes.
            raw = {**raw, "node": nodes[0], "scaling_style": style}
        request = _checked(what, parse_sweep, raw)
        _check_boxes(technologies[1:], what, request.vths,
                     request.toxes_angstrom)
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
            _cache_config(entry, f"campaign.optimize.caches[{index}]")
            for index, entry in enumerate(raw_caches)
        )
        raw_schemes = raw.get("schemes", ["1", "2", "3"])
        if not isinstance(raw_schemes, list) or not raw_schemes:
            raise ValidationError(
                "campaign.optimize.schemes must be a non-empty list of "
                "scheme codes"
            )
        schemes = []
        for index, code in enumerate(map(str, raw_schemes)):
            _checked(f"campaign.optimize.schemes[{index}]", scheme_from_code,
                     code)
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
            _in_range(value, f"campaign.optimize.target_ps[{index}]",
                      **_TARGET_PS_RANGE)
            for index, value in enumerate(raw_targets)
        )
        vths, toxes = _grid_axes(raw, "campaign.optimize", technologies,
                                 required=False)
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
