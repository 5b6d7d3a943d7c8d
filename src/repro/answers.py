"""One answer per design question: sweep grids, optimisations, AMAT.

The daemon's endpoints (:mod:`repro.service.server`) and the campaign
units (:mod:`repro.campaign.runner`) ask the same three questions; each
answer is written here, once, below both layers.  Every computed number
is a Python ``float``, because answers are written to JSON (responses,
campaign checkpoints) and must round-trip bit-identically.  Fields that
only echo the question (cache name, node, target, sizes) are passed in
and returned as given, so each caller keeps its own bytes.

The circuit models come from one process-wide LRU, :func:`shared_model`,
keyed by a cache's structure plus its technology and never by its name:
building a model sizes its whole circuit substrate, and a kept model
answers repeat evaluations from its component memo.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro import units
from repro.archsim.amat import amat_two_level
from repro.cache.assignment import Knobs
from repro.cache.cache_model import CacheModel
from repro.cache.config import CacheConfig
from repro.energy.dynamic import MainMemoryModel
from repro.errors import ReproError
from repro.optimize.schemes import Scheme
from repro.optimize.single_cache import minimize_leakage
from repro.optimize.space import DesignSpace
from repro.technology.nodes import node_technology

#: Constructed models kept per process (least recently used beyond it).
MAX_MODELS = 32

#: Ceiling on a union sweep grid; beyond it sweeps are evaluated apart.
MAX_UNION_POINTS = 65_536


def structure_key(config: CacheConfig) -> Tuple[int, int, int, int]:
    """The identity of a cache's circuit: its geometry, never its name."""
    return (config.size_bytes, config.block_bytes, config.associativity,
            config.output_bits)


def model_key(config: CacheConfig, node: int, scaling_style: str) -> tuple:
    """Structure *and* technology: one geometry at two nodes is two
    circuits, and sharing a model (or a sweep batch) across nodes would
    serve one node's numbers for the other."""
    return (structure_key(config), node, scaling_style)


_models: "OrderedDict[tuple, CacheModel]" = OrderedDict()
_models_lock = threading.Lock()


def _reset_lock_after_fork() -> None:
    # A pool worker forked while another thread held the lock would
    # otherwise block on its first lookup forever.
    global _models_lock
    _models_lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_lock_after_fork)


def shared_model(
    config: CacheConfig, node: int, scaling_style: str
) -> CacheModel:
    """The process's kept :class:`CacheModel` for a validated config."""
    key = model_key(config, node, scaling_style)
    with _models_lock:
        model = _models.get(key)
        if model is not None:
            _models.move_to_end(key)
            return model
    # Build outside the lock (construction sizes the whole circuit
    # substrate); worst case two threads build and one wins.
    model = CacheModel(
        config, technology=node_technology(node, scaling_style)
    )
    with _models_lock:
        incumbent = _models.get(key)
        if incumbent is not None:
            return incumbent
        _models[key] = model
        while len(_models) > MAX_MODELS:
            _models.popitem(last=False)
    return model


def slice_grid(
    tables: dict,
    space: DesignSpace,
    vths: Tuple[float, ...],
    toxes_angstrom: Tuple[float, ...],
    component: str,
) -> Dict[str, np.ndarray]:
    """Cut one request's (Vth, Tox) grid out of union component tables.

    The component tables hold flat arrays in Vth-major order over
    ``space``; the result is three 2-D arrays of shape
    ``(len(vths), len(toxes_angstrom))``.
    """
    table = tables[component]
    n_vth = len(space.vth_values)
    n_tox = len(space.tox_values_angstrom)
    vth_index = np.searchsorted(np.asarray(space.vth_values), vths)
    tox_index = np.searchsorted(
        np.asarray(space.tox_values_angstrom), toxes_angstrom
    )
    if (vth_index >= n_vth).any() or (tox_index >= n_tox).any():
        raise ReproError(
            "requested axes are not contained in the union grid"
        )  # pragma: no cover - the union is built from the requests
    window = np.ix_(vth_index, tox_index)
    return {
        "delay": table.delays.reshape(n_vth, n_tox)[window],
        "leakage": table.leakages.reshape(n_vth, n_tox)[window],
        "energy": table.energies.reshape(n_vth, n_tox)[window],
    }


def _grid_to_lists(grid) -> list:
    return [[float(value) for value in row] for row in grid]


def sweep_answer(
    tables: dict, space: DesignSpace, vths: Sequence[float],
    toxes_angstrom: Sequence[float], components: Sequence[str],
    cache: str, node: int, scaling_style: str,
) -> dict:
    """One sweep's grids in ps / mW / pJ, cut out of ``tables``."""
    vths, toxes_angstrom = tuple(vths), tuple(toxes_angstrom)
    grids = {}
    for name in components:
        sliced = slice_grid(tables, space, vths, toxes_angstrom, name)
        grids[name] = {
            "delay_ps": _grid_to_lists(units.to_ps(sliced["delay"])),
            "leakage_mw": _grid_to_lists(units.to_mw(sliced["leakage"])),
            "energy_pj": _grid_to_lists(units.to_pj(sliced["energy"])),
        }
    return {
        "cache": cache,
        "node": node,
        "scaling_style": scaling_style,
        "vth": list(vths),
        "tox_angstrom": list(toxes_angstrom),
        "components": grids,
    }


def optimize_head(cache: str, node: int, scaling_style: str,
                  scheme: Scheme, target_ps: float) -> dict:
    """The fields naming one optimisation, echoed first in its answer."""
    return {"cache": cache, "node": node, "scaling_style": scaling_style,
            "scheme": scheme.paper_name, "target_ps": target_ps}


def optimize_answer(
    model: CacheModel,
    scheme: Scheme,
    max_access_time: float,
    head: dict,
    vths: Optional[Sequence[float]] = None,
    toxes_angstrom: Optional[Sequence[float]] = None,
) -> dict:
    """``head`` plus the minimum-leakage design under ``scheme``.

    The axes default to the model's technology grid.  Raises
    :class:`~repro.errors.InfeasibleConstraintError` when no design
    meets ``max_access_time`` (s).
    """
    space = None
    if vths is not None:
        space = DesignSpace.for_technology(
            model.technology,
            vth_values=tuple(vths),
            tox_values_angstrom=tuple(toxes_angstrom),
        )
    result = minimize_leakage(model, scheme, max_access_time, space=space)
    return {
        **head,
        "access_ps": float(units.to_ps(result.access_time)),
        "slack_ps": float(units.to_ps(result.slack)),
        "leakage_mw": float(units.to_mw(result.leakage_power)),
        "assignment": {
            name: {"vth": float(point.vth),
                   "tox_angstrom": float(point.tox_angstrom)}
            for name, point in result.assignment.components()
        },
    }


def price_amat(
    l1_model: CacheModel, l1_knobs: Knobs,
    l2_model: CacheModel, l2_knobs: Knobs,
    miss_source, memory: MainMemoryModel, *,
    workload: str, policy: str, node: int, scaling_style: str,
    l1_size_kb: float, l2_size_kb: float,
    l1_assoc: Optional[int] = None, l2_assoc: Optional[int] = None,
) -> dict:
    """AMAT, energy per access and leakage of one two-level shape.

    Each level runs one (Vth, Tox) pair on all of its components.
    ``miss_source`` has ``l1_miss_rate(size, associativity)`` and
    ``l2_local_miss_rate(size, associativity)``; it gets ``l1_assoc`` /
    ``l2_assoc`` as given (``None`` reads a reference-shape curve).
    """
    l1_eval = l1_model.uniform(l1_knobs)
    l2_eval = l2_model.uniform(l2_knobs)
    m1 = miss_source.l1_miss_rate(l1_model.config.size_bytes, l1_assoc)
    m2 = miss_source.l2_local_miss_rate(
        l2_model.config.size_bytes, l2_assoc
    )
    amat = amat_two_level(
        l1_eval.access_time, m1, l2_eval.access_time, m2, memory.latency
    )
    energy = l1_eval.dynamic_read_energy + m1 * (
        l2_eval.dynamic_read_energy + m2 * memory.energy_per_access
    )
    return {
        "workload": workload,
        "policy": policy,
        "node": node,
        "scaling_style": scaling_style,
        "amat_ps": float(units.to_ps(amat)),
        "energy_per_access_pj": float(units.to_pj(energy)),
        "total_leakage_mw": float(units.to_mw(
            l1_eval.leakage_power + l2_eval.leakage_power
        )),
        "memory_latency_ps": float(units.to_ps(memory.latency)),
        "l1": {
            "size_kb": l1_size_kb,
            "associativity": l1_model.config.associativity,
            "access_ps": float(units.to_ps(l1_eval.access_time)),
            "leakage_mw": float(units.to_mw(l1_eval.leakage_power)),
            "miss_rate": float(m1),
        },
        "l2": {
            "size_kb": l2_size_kb,
            "associativity": l2_model.config.associativity,
            "access_ps": float(units.to_ps(l2_eval.access_time)),
            "leakage_mw": float(units.to_mw(l2_eval.leakage_power)),
            "local_miss_rate": float(m2),
        },
    }
