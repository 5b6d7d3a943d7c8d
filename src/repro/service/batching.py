"""Request coalescing over the vectorized sweep engine.

The daemon's hot path is ``POST /v1/sweep``: evaluate a cache's
components over a (Vth, Tox) grid.  The vectorized engine's cost is
dominated by per-call fixed work, not by grid size — evaluating a 50 %
larger grid is nearly free — so concurrent requests for the *same cache
structure* are coalesced: requests that land within a small window are
merged into one ``evaluate_grid`` call over the union of their axes, and
each request is answered from its own slice of the union tables.

Correctness rests on the grid being a cross product: every requested
(Vth, Tox) pair is by construction a point of (union Vth axis) x (union
Tox axis), so slicing the union tables with each request's axis indices
reproduces exactly what a solo evaluation would have returned.

Mechanics: the first request for a key becomes the *leader* — it waits
``window_seconds`` for followers to pile on, computes, and distributes.
Followers block on an event.  The union tables go through
:func:`repro.perf.table_cache.cached_tables` (the same process-wide
memo the optimiser endpoint uses), so a repeated union grid costs no
engine call at all; the ``sweep.evaluate_grid_calls`` counter is
incremented only inside the cache-miss callback and is therefore an
exact count of real engine work — the number ``/metrics`` consumers
divide by ``sweep.requests`` to observe coalescing.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.answers import MAX_UNION_POINTS, slice_grid
from repro.cache.assignment import COMPONENT_NAMES
from repro.optimize.single_cache import _compute_component_tables
from repro.optimize.space import DesignSpace
from repro.perf.table_cache import cached_tables

from repro.service.metrics import MetricsRegistry, SIZE_BUCKETS

__all__ = ["MAX_UNION_POINTS", "SweepBatcher", "slice_grid"]


@dataclass
class _Entry:
    """One request waiting inside a batch."""

    vths: Tuple[float, ...]
    toxes: Tuple[float, ...]
    event: threading.Event = field(default_factory=threading.Event)
    tables: Optional[dict] = None
    space: Optional[DesignSpace] = None
    error: Optional[BaseException] = None


class SweepBatcher:
    """Coalesce concurrent same-model sweep requests into union grids."""

    def __init__(
        self,
        metrics: MetricsRegistry,
        window_seconds: float = 0.005,
        max_batch: int = 64,
    ) -> None:
        self._metrics = metrics
        self._window = window_seconds
        self._max_batch = max_batch
        self._lock = threading.Lock()
        self._pending: Dict[Hashable, List[_Entry]] = {}

    def _counted_compute(self, model, space):
        """The table-cache miss path — the only place engine work happens."""
        self._metrics.increment(
            "sweep.evaluate_grid_calls", len(COMPONENT_NAMES)
        )
        self._metrics.increment("sweep.engine_grid_evaluations")
        return _compute_component_tables(model, space)

    def _evaluate(self, model, space: DesignSpace):
        return cached_tables(model, space, self._counted_compute)

    def tables_for(
        self,
        key: Hashable,
        model,
        vths: Tuple[float, ...],
        toxes_angstrom: Tuple[float, ...],
    ) -> Tuple[dict, DesignSpace]:
        """Return (component tables, space they were computed on).

        The returned space covers at least the requested axes; use
        :func:`repro.answers.slice_grid` to cut the request's own grid
        out of it.  ``key`` identifies the model
        (:func:`repro.answers.model_key`; requests with different keys
        never share an engine call).
        """
        self._metrics.increment("sweep.requests")
        entry = _Entry(vths=vths, toxes=toxes_angstrom)
        my_batch: Optional[List[_Entry]] = None
        with self._lock:
            batch = self._pending.get(key)
            if batch is not None and len(batch) < self._max_batch:
                batch.append(entry)
            else:
                # Either no batch is open for this key or the open one is
                # full: this request leads a new batch (the full one stays
                # owned by its own leader, which detaches by identity).
                my_batch = [entry]
                self._pending[key] = my_batch
        if my_batch is None:
            entry.event.wait()
            if entry.error is not None:
                raise entry.error
            self._metrics.increment("sweep.coalesced_requests")
            return entry.tables, entry.space
        if self._window > 0:
            time.sleep(self._window)
        with self._lock:
            if self._pending.get(key) is my_batch:
                del self._pending[key]
            batch = my_batch
        try:
            union_vths = tuple(
                sorted(set().union(*(member.vths for member in batch)))
            )
            union_toxes = tuple(
                sorted(
                    set().union(*(member.toxes for member in batch))
                )
            )
            if len(union_vths) * len(union_toxes) > MAX_UNION_POINTS:
                # Pathological mix: fall back to per-request evaluation
                # rather than building a gigantic union grid.
                self._metrics.increment("sweep.union_overflows")
                for member in batch:
                    member.space = DesignSpace.for_technology(
                        model.technology,
                        vth_values=member.vths,
                        tox_values_angstrom=member.toxes,
                    )
                    member.tables = self._evaluate(model, member.space)
            else:
                # The space's bounds come from the model's own node: a
                # non-65 nm request's axes live in that node's box and
                # would fail the 65 nm-default validation.
                space = DesignSpace.for_technology(
                    model.technology,
                    vth_values=union_vths,
                    tox_values_angstrom=union_toxes,
                )
                tables = self._evaluate(model, space)
                for member in batch:
                    member.tables = tables
                    member.space = space
        except BaseException as error:
            for member in batch:
                member.error = error
                member.event.set()
            raise
        self._metrics.increment("sweep.batches")
        self._metrics.observe(
            "sweep.batch_size", len(batch), boundaries=SIZE_BUCKETS
        )
        for member in batch:
            if member is not entry:
                member.event.set()
        return entry.tables, entry.space
