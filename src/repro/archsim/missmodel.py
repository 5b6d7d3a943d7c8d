"""Analytical miss-rate model calibrated against the simulator.

The Section 5 optimisers sweep dozens of (L1 size, L2 size, knob) design
points; re-simulating hundreds of thousands of accesses per point would
dominate runtime without changing the answer.  Instead, the simulator is
run once per (workload, cache size) on a reference grid and the resulting
local miss-rate curves are interpolated in log2(size) — the standard
shape of miss-rate-vs-size data.

``CALIBRATED_TABLES`` holds curves pre-measured with
:func:`measure_miss_model` (2 M accesses, seed 1, L1 32 B blocks / 2-way,
L2 64 B blocks / 8-way, the L2 curve measured behind a 16 KB L1).  The
test suite re-measures them against a live simulation with a tolerance,
so the table cannot silently drift from the simulator.

Calibration takes one route, :func:`_shape_rates`, over canonical
``(level, n_sets, assoc)`` shapes; grids and the profile store's dense
surfaces both go through it.  LRU shapes are answered by one per-set
Mattson pass over the trace (:mod:`repro.archsim.setdist`), whose cost
does not grow with the number of shapes; FIFO and random shapes by one
:class:`~repro.archsim.multiconfig.MultiConfigHierarchyEngine` sweep
(one address decode, shared set indices, the reference L1 in front of
every L2 shape simulated once).  Both are bit-identical to one
:class:`~repro.archsim.hierarchy.ArrayTwoLevelHierarchy` run per point,
the oracle the test suite compares them against.  Every model — a
measured grid, a surface slice, a blend — is assembled by
:func:`_model_from_rates`.  The measured curves are memoised on disk
keyed by a fingerprint of every input (workload spec, trace length,
seed, grids, reference shapes, policy) — a warm re-calibration is a
file read.

Note the L2 *local* miss-rate convention: misses over L2 accesses.  The
curves bake in the reference L1's filtering; Section 5's experiments vary
one level at a time around that reference point, matching the paper's
methodology of per-combination architectural runs.

Two axes beyond the original calibration contract:

* **Associativity** is a first-class grid axis: ``l1_assocs`` /
  ``l2_assocs`` measure each size at several set-associativities (the
  reference shape is always included so the plain curves keep their
  meaning), and :meth:`MissRateModel.l1_miss_rate` takes an optional
  ``associativity``.
* The **profile store** (:mod:`repro.perf.profile_store`) serves
  covered grids by slicing a precomputed dense (size, assoc) surface —
  bit-identical to direct simulation — so a warmed workload answers any
  sub-grid with zero trace passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.archsim import setdist
from repro.archsim.multiconfig import MultiConfigHierarchyEngine
from repro.archsim.replacement import check_policy
from repro.archsim.setdist import _DEPTH_CAP_LIMIT
from repro.archsim.workloads import (
    STANDARD_WORKLOADS,
    WorkloadSpec,
    standard_workload,
    synthetic_trace_buffer,
)
from repro.cache.config import CacheConfig
from repro.perf.disk_cache import DiskCache, make_fingerprint
from repro.perf.profile_store import sets_for

#: Reference shapes used for calibration.
REFERENCE_L1_BLOCK = 32
REFERENCE_L1_ASSOC = 2
REFERENCE_L2_BLOCK = 64
REFERENCE_L2_ASSOC = 8
REFERENCE_L1_KB = 16
REFERENCE_L2_KB = 1024
#: Block size per level: every calibration point uses its level's.
_BLOCK = {"l1": REFERENCE_L1_BLOCK, "l2": REFERENCE_L2_BLOCK}
#: Set count of the reference L1 (the filter in front of every L2 shape).
_REFERENCE_L1_SETS = REFERENCE_L1_KB * 1024 // (
    REFERENCE_L1_BLOCK * REFERENCE_L1_ASSOC
)

#: Sizes (KiB) on the calibration grid.
L1_GRID_KB: Tuple[int, ...] = (4, 8, 16, 32, 64)
L2_GRID_KB: Tuple[int, ...] = (128, 256, 512, 1024, 2048, 4096, 8192)


def _interpolate_log2(curve: Dict[int, float], size_bytes: int) -> float:
    """Piecewise-linear interpolation of miss rate in log2(size).

    Clamps outside the grid (miss curves flatten at both ends).
    """
    if size_bytes <= 0:
        raise SimulationError(f"size must be positive, got {size_bytes}")
    points = sorted(curve.items())
    x = math.log2(size_bytes)
    xs = [math.log2(size) for size, _ in points]
    ys = [rate for _, rate in points]
    if x <= xs[0]:
        return ys[0]
    if x >= xs[-1]:
        return ys[-1]
    for i in range(1, len(xs)):
        if x <= xs[i]:
            t = (x - xs[i - 1]) / (xs[i] - xs[i - 1])
            return ys[i - 1] + t * (ys[i] - ys[i - 1])
    return ys[-1]


@dataclass(frozen=True)
class MissRateModel:
    """Interpolated local miss-rate curves for one workload.

    Attributes
    ----------
    workload:
        Suite name.
    l1_curve / l2_curve:
        size-bytes -> local miss rate measurement grids at the reference
        associativities (2-way L1, 8-way L2).
    l1_assoc_curves / l2_assoc_curves:
        Optional associativity -> curve maps for calibrations that swept
        the assoc axis; empty for reference-shape-only calibrations, so
        existing models compare equal to their pre-axis selves.
    """

    workload: str
    l1_curve: Tuple[Tuple[int, float], ...]
    l2_curve: Tuple[Tuple[int, float], ...]
    l1_assoc_curves: Tuple[
        Tuple[int, Tuple[Tuple[int, float], ...]], ...
    ] = ()
    l2_assoc_curves: Tuple[
        Tuple[int, Tuple[Tuple[int, float], ...]], ...
    ] = ()

    def _curve(
        self, level: str, associativity: Optional[int]
    ) -> Tuple[Tuple[int, float], ...]:
        base = self.l1_curve if level == "l1" else self.l2_curve
        if associativity is None:
            return base
        curves = dict(
            self.l1_assoc_curves if level == "l1" else self.l2_assoc_curves
        )
        if associativity in curves:
            return curves[associativity]
        reference = (
            REFERENCE_L1_ASSOC if level == "l1" else REFERENCE_L2_ASSOC
        )
        if associativity == reference:
            return base
        raise SimulationError(
            f"{level} associativity {associativity} was not measured for "
            f"workload {self.workload!r}; measured: "
            f"{sorted(curves) or [reference]}"
        )

    def l1_miss_rate(
        self, size_bytes: int, associativity: Optional[int] = None
    ) -> float:
        """Local L1 miss rate at the given capacity (and associativity)."""
        return _interpolate_log2(
            dict(self._curve("l1", associativity)), size_bytes
        )

    def l2_local_miss_rate(
        self, size_bytes: int, associativity: Optional[int] = None
    ) -> float:
        """Local L2 miss rate at the given capacity (behind the ref L1)."""
        return _interpolate_log2(
            dict(self._curve("l2", associativity)), size_bytes
        )


#: Bump when measurement semantics change: it is folded into the disk
#: fingerprint, so stale cached curves can never be served.  Format 9:
#: one route per policy, so the engine and estimator tags left the
#: fingerprint.  Format 8 made the stackdist estimator's L2 curve
#: exact; format 7 made associativity a real grid axis (``l1_assocs`` /
#: ``l2_assocs``); format 6 added the setdist estimator; format 5 the
#: replacement policy and canonical fingerprint parts.
_CALIBRATION_FORMAT = 9

def _point_assoc(level: str, assoc: Optional[int]) -> int:
    """Associativity of one grid point (reference shape when unspecified)."""
    if assoc is not None:
        return assoc
    return REFERENCE_L1_ASSOC if level == "l1" else REFERENCE_L2_ASSOC


def _config(level: str, size_bytes: int, assoc: int) -> CacheConfig:
    """One calibration cache of ``level`` at its reference block size."""
    return CacheConfig(
        size_bytes=size_bytes,
        block_bytes=_BLOCK[level],
        associativity=assoc,
        name=level.upper(),
    )


def _point_configs(
    level: str, kb: int, assoc: Optional[int] = None
) -> Tuple[CacheConfig, CacheConfig]:
    """L1/L2 shapes for one calibration point (vary one level at a time)."""
    varied = _config(level, kb * 1024, _point_assoc(level, assoc))
    if level == "l1":
        return varied, _config(
            "l2", REFERENCE_L2_KB * 1024, REFERENCE_L2_ASSOC
        )
    return _config("l1", REFERENCE_L1_KB * 1024, REFERENCE_L1_ASSOC), varied


def _calibration_trace(spec: WorkloadSpec, n_accesses: int, seed: int):
    """The trace every calibration of (spec, n_accesses, seed) replays."""
    return synthetic_trace_buffer(spec, n_accesses, seed=seed, block_bytes=64)


def _shape_rates(
    shapes: Sequence[Tuple[str, int, int]], trace, policy: str
) -> List[float]:
    """Exact local miss rate of every ``(level, n_sets, assoc)`` shape.

    The one calibration route: grids (:func:`measure_miss_model`) and
    the profile store's dense surfaces
    (:func:`repro.perf.profile_store._compute_surface`) both call it.
    L1 shapes are measured on their own, L2 shapes behind the reference
    L1, each level at its reference block size.

    * LRU makes one :func:`repro.archsim.setdist.two_level_profiles`
      call: one contraction cascade covers every L1 shape, and the
      reference L1's miss + dirty write-back stream is replayed exactly
      through a second cascade for every L2 shape, at a cost that does
      not grow with the number of shapes.  Depth histograms are exact
      per (set count, depth), so the profiled depth window never
      changes a rate.
    * FIFO and random make one
      :class:`~repro.archsim.multiconfig.MultiConfigHierarchyEngine`
      pass: every distinct L1 shape runs as a lane with no L2, and the
      reference L1 is simulated once in front of every L2 shape.
      Random-policy rng streams live per cache, so the pass matches
      each shape's own seeded draws.

    Either way every rate is bit-identical to one
    :class:`~repro.archsim.hierarchy.ArrayTwoLevelHierarchy` run per
    shape.
    """
    if policy == "lru":
        set_counts: Dict[str, set] = {"l1": set(), "l2": set()}
        # The reference L1 replay needs its own associativity inside the
        # L1 profiling window, so that window spans the reference too.
        assocs: Dict[str, List[int]] = {"l1": [REFERENCE_L1_ASSOC], "l2": []}
        for level, sets, assoc in shapes:
            set_counts[level].add(sets)
            assocs[level].append(assoc)
        assocs["l2"] = assocs["l2"] or [REFERENCE_L2_ASSOC]
        l1_profiles, l2_profiles = setdist.two_level_profiles(
            trace,
            l1_set_counts=sorted(set_counts["l1"]),
            l2_set_counts=sorted(set_counts["l2"]),
            ref_sets=_REFERENCE_L1_SETS,
            ref_assoc=REFERENCE_L1_ASSOC,
            l1_block_bytes=REFERENCE_L1_BLOCK,
            l2_block_bytes=REFERENCE_L2_BLOCK,
            l1_depth_cap=max(assocs["l1"]),
            l2_depth_cap=max(assocs["l2"]),
            l1_min_assoc=min(assocs["l1"]),
            l2_min_assoc=min(assocs["l2"]),
        )
        profiles = {"l1": l1_profiles, "l2": l2_profiles}
        return [
            profiles[level][sets].miss_rate(assoc)
            for level, sets, assoc in shapes
        ]
    reference_l1 = _config("l1", REFERENCE_L1_KB * 1024, REFERENCE_L1_ASSOC)
    engine_points = []
    for level, sets, assoc in shapes:
        config = _config(level, sets * assoc * _BLOCK[level], assoc)
        engine_points.append(
            (config, None) if level == "l1" else (reference_l1, config)
        )
    results = MultiConfigHierarchyEngine(engine_points, policy).run(trace)
    return [
        result.l1_miss_rate if level == "l1" else result.l2_local_miss_rate
        for (level, _, _), result in zip(shapes, results)
    ]


def _calibration_fingerprint(
    spec: WorkloadSpec,
    n_accesses: int,
    seed: int,
    l1_grid_kb: Sequence[int],
    l2_grid_kb: Sequence[int],
    policy: str,
    l1_assocs: Sequence[int],
    l2_assocs: Sequence[int],
) -> str:
    """Fold every input that determines the curves into one string."""
    return make_fingerprint(
        _CALIBRATION_FORMAT,
        spec,
        n_accesses,
        seed,
        tuple(l1_grid_kb),
        tuple(l2_grid_kb),
        (REFERENCE_L1_BLOCK, REFERENCE_L1_ASSOC, REFERENCE_L1_KB),
        (REFERENCE_L2_BLOCK, REFERENCE_L2_ASSOC, REFERENCE_L2_KB),
        policy,
        tuple(l1_assocs),
        tuple(l2_assocs),
    )


def _validate_assocs(
    assocs: Optional[Sequence[int]], level: str
) -> Optional[Tuple[int, ...]]:
    """Validate a requested associativity axis (None passes through).

    Entries above the per-set profiler's depth limit are rejected here,
    before any trace pass, for every policy: one bound for the library.
    """
    if assocs is None:
        return None
    validated: List[int] = []
    for assoc in assocs:
        if (
            not isinstance(assoc, (int, np.integer))
            or isinstance(assoc, bool)
            or assoc < 1
            or (int(assoc) & (int(assoc) - 1))
        ):
            raise SimulationError(
                f"{level}_assocs entries must be positive power-of-two "
                f"ints, got {assoc!r}"
            )
        if assoc > _DEPTH_CAP_LIMIT:
            raise SimulationError(
                f"{level}_assocs entries must be at most "
                f"{_DEPTH_CAP_LIMIT} (the per-set profiler's depth "
                f"limit), got {assoc}"
            )
        validated.append(int(assoc))
    if not validated:
        raise SimulationError(f"{level}_assocs must not be empty")
    if len(set(validated)) != len(validated):
        raise SimulationError(
            f"{level}_assocs must not repeat values, got {list(assocs)}"
        )
    return tuple(validated)


def _grid_points(
    l1_grid_kb: Sequence[int],
    l2_grid_kb: Sequence[int],
    l1_assocs: Sequence[int],
    l2_assocs: Sequence[int],
) -> List[Tuple[str, int, int]]:
    """The full (level, kb, assoc) calibration grid, L1 block then L2."""
    points = [
        ("l1", kb, assoc) for assoc in l1_assocs for kb in l1_grid_kb
    ]
    points += [
        ("l2", kb, assoc) for assoc in l2_assocs for kb in l2_grid_kb
    ]
    return points


def _model_from_rates(
    workload: str,
    rate: Callable[[str, int, int], float],
    l1_grid_kb: Sequence[int],
    l2_grid_kb: Sequence[int],
    l1_axis: Sequence[int],
    l2_axis: Sequence[int],
) -> MissRateModel:
    """Assemble a model from ``rate(level, kb, assoc)``.

    The plain curves are taken at the reference associativities; one
    assoc curve per entry of ``l1_axis`` / ``l2_axis`` (empty: none).
    """

    def curve(level: str, grid_kb: Sequence[int], assoc: int):
        return tuple((kb * 1024, rate(level, kb, assoc)) for kb in grid_kb)

    return MissRateModel(
        workload=workload,
        l1_curve=curve("l1", l1_grid_kb, REFERENCE_L1_ASSOC),
        l2_curve=curve("l2", l2_grid_kb, REFERENCE_L2_ASSOC),
        l1_assoc_curves=tuple(
            (assoc, curve("l1", l1_grid_kb, assoc)) for assoc in l1_axis
        ),
        l2_assoc_curves=tuple(
            (assoc, curve("l2", l2_grid_kb, assoc)) for assoc in l2_axis
        ),
    )


def _surface_rate(surface) -> Callable[[str, int, int], float]:
    """``rate(level, kb, assoc)`` read off a profile-store surface."""
    return lambda level, kb, assoc: surface.miss_rate(level, kb * 1024, assoc)


def _model_payload(model: MissRateModel) -> dict:
    """JSON-serialisable disk-cache payload for one model."""
    payload = {
        "workload": model.workload,
        "l1_curve": [list(point) for point in model.l1_curve],
        "l2_curve": [list(point) for point in model.l2_curve],
    }
    if model.l1_assoc_curves:
        payload["l1_assoc_curves"] = [
            [assoc, [list(point) for point in curve]]
            for assoc, curve in model.l1_assoc_curves
        ]
    if model.l2_assoc_curves:
        payload["l2_assoc_curves"] = [
            [assoc, [list(point) for point in curve]]
            for assoc, curve in model.l2_assoc_curves
        ]
    return payload


def _model_from_payload(payload: dict) -> MissRateModel:
    """Reconstruct a model from its disk-cache payload."""

    def curve(points) -> Tuple[Tuple[int, float], ...]:
        return tuple((int(size), float(rate)) for size, rate in points)

    def assoc_curves(entries) -> Tuple:
        return tuple((int(assoc), curve(points)) for assoc, points in entries)

    return MissRateModel(
        workload=payload["workload"],
        l1_curve=curve(payload["l1_curve"]),
        l2_curve=curve(payload["l2_curve"]),
        l1_assoc_curves=assoc_curves(payload.get("l1_assoc_curves", ())),
        l2_assoc_curves=assoc_curves(payload.get("l2_assoc_curves", ())),
    )


def _measured_assocs(
    axis: Optional[Tuple[int, ...]], reference: int
) -> Tuple[int, ...]:
    """Associativities to measure: the requested axis plus the reference."""
    return tuple(sorted(set(axis) | {reference})) if axis else (reference,)


def _store_covers(points: Sequence[Tuple[str, int, int]]) -> bool:
    """Whether every point lies on the profile store's dense surface."""
    from repro.perf import profile_store as profile_store_tier

    return all(
        profile_store_tier.covers_point(
            level, kb * 1024, assoc, block_bytes=_BLOCK[level]
        )
        for level, kb, assoc in points
    )


def _calibrate(
    spec: WorkloadSpec,
    n_accesses: int,
    seed: int,
    l1_grid_kb: Sequence[int],
    l2_grid_kb: Sequence[int],
    policy: str,
    l1_assocs: Optional[Sequence[int]],
    l2_assocs: Optional[Sequence[int]],
    *,
    cache_dir,
    use_disk_cache: bool,
    profile_store: str,
    measure: bool,
) -> Optional[MissRateModel]:
    """The body of :func:`measure_miss_model` and :func:`peek_miss_model`.

    Tiers in order: the missmodel disk cache, a profile-store slice,
    then — only when ``measure`` — one trace pass over the grid's
    shapes.  Without ``measure`` a miss of both serving tiers is
    ``None``.
    """
    check_policy(policy)
    if profile_store not in ("auto", "always", "off"):
        raise SimulationError(
            f"unknown profile_store mode {profile_store!r}; expected "
            f"'auto', 'always' or 'off'"
        )
    l1_axis = _validate_assocs(l1_assocs, "l1")
    l2_axis = _validate_assocs(l2_assocs, "l2")
    measured_l1 = _measured_assocs(l1_axis, REFERENCE_L1_ASSOC)
    measured_l2 = _measured_assocs(l2_axis, REFERENCE_L2_ASSOC)
    points = _grid_points(l1_grid_kb, l2_grid_kb, measured_l1, measured_l2)
    # Canonical (level, n_sets, assoc) shapes; a geometry that does not
    # divide into sets fails here, before any tier is consulted.
    shapes = [
        (level, sets_for(level, kb * 1024, assoc, block_bytes=_BLOCK[level]),
         assoc)
        for level, kb, assoc in points
    ] if measure else None
    fingerprint = _calibration_fingerprint(
        spec, n_accesses, seed, l1_grid_kb, l2_grid_kb, policy,
        measured_l1, measured_l2,
    )
    cache = (
        DiskCache("missmodel", directory=cache_dir) if use_disk_cache else None
    )
    if cache is not None:
        payload = cache.load(fingerprint)
        if payload is not None:
            return _model_from_payload(payload)

    # Profile-store serving tier: slice a dense precomputed surface
    # instead of sweeping the trace.  The surface is computed by the
    # same shape route as below, so a slice is bit-identical to it.
    surface = None
    if profile_store != "off" and _store_covers(points):
        from repro.perf import profile_store as profile_store_tier

        surface = profile_store_tier.get_store(cache_dir).surface(
            spec,
            policy=policy,
            n_accesses=n_accesses,
            seed=seed,
            compute=profile_store == "always",
        )
    if surface is not None:
        rate = _surface_rate(surface)
    elif not measure:
        return None
    else:
        rates = dict(zip(points, _shape_rates(
            shapes, _calibration_trace(spec, n_accesses, seed), policy
        )))

        def rate(level: str, kb: int, assoc: int) -> float:
            return rates[(level, kb, assoc)]
    model = _model_from_rates(
        spec.name, rate, l1_grid_kb, l2_grid_kb,
        measured_l1 if l1_axis else (), measured_l2 if l2_axis else (),
    )
    if cache is not None:
        cache.store(fingerprint, _model_payload(model))
    return model


def measure_miss_model(
    spec: WorkloadSpec,
    n_accesses: int = 300_000,
    seed: int = 1,
    l1_grid_kb: Sequence[int] = L1_GRID_KB,
    l2_grid_kb: Sequence[int] = L2_GRID_KB,
    use_disk_cache: bool = True,
    cache_dir=None,
    policy: str = "lru",
    l1_assocs: Optional[Sequence[int]] = None,
    l2_assocs: Optional[Sequence[int]] = None,
    profile_store: str = "auto",
) -> MissRateModel:
    """Measure a fresh :class:`MissRateModel` by simulation.

    The L1 curve is measured with the reference L2; the L2 curve with the
    reference L1 (the paper's one-variable-at-a-time methodology).  The
    grid's shapes take one exact pass (:func:`_shape_rates`): the per-set
    Mattson profiler for LRU, one multi-config sweep for FIFO and random.

    Parameters beyond the grids:

    use_disk_cache / cache_dir:
        Memoise the measured curves on disk
        (:class:`repro.perf.DiskCache`, namespace ``missmodel``), keyed
        by a fingerprint of the workload spec, trace length, seed,
        grids, reference cache shapes and policy.  A warm call is a
        file read.
    policy:
        Replacement policy at both levels — ``"lru"`` (default),
        ``"fifo"`` or ``"random"``.
    l1_assocs / l2_assocs:
        Optional associativity axes (positive power-of-two ints up to
        the per-set profiler's depth limit).  Each level's grid becomes
        sizes x assocs; the reference associativity is always measured
        too, so ``l1_curve`` / ``l2_curve`` keep their reference-shape
        meaning and the requested axes land in ``l1_assoc_curves`` /
        ``l2_assoc_curves``.  ``None`` (default) measures the reference
        shape only and leaves the assoc curves empty.
    profile_store:
        ``"auto"`` (default) serves the requested grid by slicing a
        dense precomputed (size, assoc) surface
        (:mod:`repro.perf.profile_store`) when one is already resident
        in memory or on disk — bit-identical to direct simulation, zero
        trace passes — and otherwise measures directly.  ``"always"``
        computes the dense surface on a miss (one trace pass answers
        *every* future sub-grid); ``"off"`` never consults the store.
        Only grids covered by the surface (4–64 KB L1, 128 KB–8 MB L2,
        power-of-two assocs up to 16) are eligible.
    """
    return _calibrate(
        spec, n_accesses, seed, l1_grid_kb, l2_grid_kb, policy,
        l1_assocs, l2_assocs, cache_dir=cache_dir,
        use_disk_cache=use_disk_cache, profile_store=profile_store,
        measure=True,
    )


def peek_miss_model(
    spec: WorkloadSpec,
    n_accesses: int = 300_000,
    seed: int = 1,
    l1_grid_kb: Sequence[int] = L1_GRID_KB,
    l2_grid_kb: Sequence[int] = L2_GRID_KB,
    cache_dir=None,
    policy: str = "lru",
    l1_assocs: Optional[Sequence[int]] = None,
    l2_assocs: Optional[Sequence[int]] = None,
) -> Optional[MissRateModel]:
    """Serve a model without ever computing, or return ``None``.

    The serving tiers of :func:`measure_miss_model` only: the missmodel
    disk cache (exact-fingerprint hit) and the profile store's memory /
    disk tiers (dense-surface slice).  A surface computation in flight
    on another thread is *not* awaited — this is the service daemon's
    "can I answer synchronously?" probe, and it must never block on a
    trace pass.  Arguments mirror :func:`measure_miss_model`; a request
    this function cannot serve should be measured there.
    """
    return _calibrate(
        spec, n_accesses, seed, l1_grid_kb, l2_grid_kb, policy,
        l1_assocs, l2_assocs, cache_dir=cache_dir, use_disk_cache=True,
        profile_store="auto", measure=False,
    )


#: Pre-measured LRU curves (2,000,000 accesses, seed 1, rounded to 5
#: decimals — see module docstring for the reference shapes).
#: Regenerate with ``python tools/calibrate_missmodel.py``.
CALIBRATED_TABLES: Dict[str, MissRateModel] = {
    "spec2000": MissRateModel(
        workload="spec2000",
        l1_curve=(
            (4096, 0.06122),
            (8192, 0.05882),
            (16384, 0.05713),
            (32768, 0.05590),
            (65536, 0.05482),
        ),
        l2_curve=(
            (131072, 0.55752),
            (262144, 0.53061),
            (524288, 0.47999),
            (1048576, 0.39603),
            (2097152, 0.29746),
            (4194304, 0.27942),
            (8388608, 0.27941),
        ),
    ),
    "specweb": MissRateModel(
        workload="specweb",
        l1_curve=(
            (4096, 0.08263),
            (8192, 0.07994),
            (16384, 0.07811),
            (32768, 0.07679),
            (65536, 0.07570),
        ),
        l2_curve=(
            (131072, 0.54294),
            (262144, 0.53175),
            (524288, 0.51353),
            (1048576, 0.48146),
            (2097152, 0.43048),
            (4194304, 0.37503),
            (8388608, 0.36520),
        ),
    ),
    "tpcc": MissRateModel(
        workload="tpcc",
        l1_curve=(
            (4096, 0.11729),
            (8192, 0.11395),
            (16384, 0.11172),
            (32768, 0.11009),
            (65536, 0.10884),
        ),
        l2_curve=(
            (131072, 0.69424),
            (262144, 0.68555),
            (524288, 0.67365),
            (1048576, 0.65223),
            (2097152, 0.61349),
            (4194304, 0.55284),
            (8388608, 0.49570),
        ),
    ),
}


def blend_shares(weights: Dict[str, float]) -> Dict[str, float]:
    """Each workload's share of a blend, or :class:`SimulationError`.

    Every name must be a standard workload, every weight finite and
    non-negative, and the total finite and positive.
    """
    if not weights:
        raise SimulationError("blend needs at least one workload")
    for name, weight in weights.items():
        standard_workload(name)
        if not (math.isfinite(weight) and weight >= 0):
            raise SimulationError(
                f"blend weight of {name!r} must be finite and "
                f"non-negative, got {weight!r}"
            )
    total = sum(weights.values())
    if not (math.isfinite(total) and total > 0):
        raise SimulationError(
            f"blend weights must sum to a finite positive value, got {total}"
        )
    return {name: weight / total for name, weight in weights.items()}


def blended_miss_model(
    weights: Dict[str, float] = None,
    policy: str = "lru",
    surface: bool = False,
    cache_dir=None,
) -> MissRateModel:
    """Return a weighted blend of the calibrated workload curves.

    The paper aggregates "results from various benchmark suites such as
    SPEC2000, SPECWEB, TPC/C, etc."; this helper produces the aggregate
    profile.  ``weights`` maps workload name -> weight (normalised
    internally); default is an equal blend of the three standard suites.
    Non-LRU ``policy`` blends the per-policy curves of
    :func:`calibrated_miss_model`.  ``surface=True`` blends the
    associativity-complete models of :func:`calibrated_miss_surface`
    instead, so the blend too answers non-reference shapes.
    """
    if weights is None:
        weights = {name: 1.0 for name in STANDARD_WORKLOADS}
    shares = blend_shares(weights)
    if surface:
        models = {
            name: calibrated_miss_surface(name, policy, cache_dir=cache_dir)
            for name in weights
        }
    else:
        models = {
            name: calibrated_miss_model(name, policy) for name in weights
        }
    reference = next(iter(models.values()))

    def rate(level: str, kb: int, assoc: int) -> float:
        # Every model's reference-assoc curve is its plain curve.
        return sum(
            shares[name] * (
                models[name].l1_miss_rate(kb * 1024, assoc) if level == "l1"
                else models[name].l2_local_miss_rate(kb * 1024, assoc)
            )
            for name in shares
        )

    label = "+".join(sorted(weights))
    return _model_from_rates(
        f"blend({label})",
        rate,
        [size // 1024 for size, _ in reference.l1_curve],
        [size // 1024 for size, _ in reference.l2_curve],
        [assoc for assoc, _ in reference.l1_assoc_curves],
        [assoc for assoc, _ in reference.l2_assoc_curves],
    )


#: Trace length for on-demand non-LRU calibrations (the committed LRU
#: tables were measured at 2 M; the default here keeps a cold per-policy
#: request subsecond — curves land in the disk cache either way).
POLICY_CALIBRATION_ACCESSES = 300_000

#: In-process memo of on-demand non-LRU calibrations, keyed by
#: (workload, policy).  LRU stays in :data:`CALIBRATED_TABLES`.
_POLICY_TABLES: Dict[Tuple[str, str], MissRateModel] = {}

#: Trace length of the committed tables' provenance (2 M accesses,
#: seed 1); LRU surfaces are measured at it, so their reference-assoc
#: curves are the exact unrounded values behind
#: :data:`CALIBRATED_TABLES`.
TABLE_CALIBRATION_ACCESSES = 2_000_000


def calibrated_miss_model(
    workload: str = "spec2000",
    policy: str = "lru",
) -> MissRateModel:
    """Return the pre-measured model for a standard workload.

    LRU serves the committed :data:`CALIBRATED_TABLES`; FIFO and random
    measure on demand at :data:`POLICY_CALIBRATION_ACCESSES` accesses,
    memoised in-process and on disk.  Falls back to a live measurement
    if the LRU table has not been populated for that workload (slower,
    but always available).
    """
    check_policy(policy)
    if policy != "lru":
        spec = standard_workload(workload)
        key = (workload, policy)
        model = _POLICY_TABLES.get(key)
        if model is None:
            model = measure_miss_model(
                spec,
                n_accesses=POLICY_CALIBRATION_ACCESSES,
                policy=policy,
            )
            _POLICY_TABLES[key] = model
        return model
    if workload in CALIBRATED_TABLES:
        return CALIBRATED_TABLES[workload]
    model = measure_miss_model(standard_workload(workload))
    CALIBRATED_TABLES[workload] = model
    return model


#: In-process memo of surface-backed models, keyed by (workload, policy).
_SURFACE_TABLES: Dict[Tuple[str, str], MissRateModel] = {}


def calibrated_miss_surface(
    workload: str = "spec2000", policy: str = "lru", cache_dir=None
) -> MissRateModel:
    """Return an associativity-complete model for a standard workload.

    Where :func:`calibrated_miss_model` serves the committed
    reference-shape tables, this serves the workload's dense profile
    surface (:mod:`repro.perf.profile_store`): every curve of
    :data:`L1_GRID_KB` / :data:`L2_GRID_KB` at every surface
    associativity (1–16, powers of two), so
    ``model.l1_miss_rate(size, assoc)`` prices any shape the optimisers
    can build.  LRU surfaces are measured at
    :data:`TABLE_CALIBRATION_ACCESSES` accesses (the committed
    tables' provenance — the reference-assoc curves match the tables up
    to their 5-decimal rounding); non-LRU at
    :data:`POLICY_CALIBRATION_ACCESSES`, matching
    :func:`calibrated_miss_model`'s per-policy convention.  Memoised
    in-process, single-flighted and disk-cached by the store.
    """
    check_policy(policy)
    spec = standard_workload(workload)
    key = (workload, policy)
    model = _SURFACE_TABLES.get(key)
    if model is not None:
        return model
    from repro.perf import profile_store as profile_store_tier

    n_accesses = (
        TABLE_CALIBRATION_ACCESSES
        if policy == "lru"
        else POLICY_CALIBRATION_ACCESSES
    )
    surface = profile_store_tier.get_store(cache_dir).surface(
        spec,
        policy=policy,
        n_accesses=n_accesses,
        seed=1,
    )
    assocs = profile_store_tier.SURFACE_ASSOCS
    model = _model_from_rates(
        workload, _surface_rate(surface), L1_GRID_KB, L2_GRID_KB,
        assocs, assocs,
    )
    _SURFACE_TABLES[key] = model
    return model
