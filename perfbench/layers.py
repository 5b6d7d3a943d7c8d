"""Which entry points the traced run wraps, and the per-layer metrics.

Layers are the program's modules.  Each wrapper is installed in the
namespace of the module that *calls* the function (a name imported with
``from x import f`` is a separate binding from ``x.f``), so the spans
see exactly the calls the workloads make.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from perfbench.common import declared
from perfbench.spans import Recorder, Span, covered, summarize

#: Component class -> the paper's component name.
COMPONENTS = {
    "AddressDriverComponent": "address_drivers",
    "DecoderComponent": "decoder",
    "ArrayComponent": "array",
    "DataDriverComponent": "data_drivers",
}

#: Entry points wrapped in every process that runs library code.
LIBRARY_PATCHES = (
    ("repro.cache.components:_ComponentBase.evaluate_grid",
     lambda args, kwargs: "cache.evaluate_grid."
     + COMPONENTS.get(type(args[0]).__name__, "other"), None),
    ("repro.cache.cache_model:CacheModel.uniform", "cache.uniform", None),
    ("repro.optimize.single_cache:component_tables",
     "optimize.component_tables", None),
    ("repro.optimize.tuple_problem:component_tables",
     "optimize.component_tables", None),
    ("repro.optimize.single_cache:minimize_leakage",
     "optimize.minimize_leakage", None),
    ("repro.optimize.tuple_problem:solve_tuple_problem",
     "optimize.tuple_problem", None),
    ("repro.optimize.single_cache:pareto_indices", "optimize.pareto", None),
    ("repro.optimize.tuple_problem:pareto_indices", "optimize.pareto", None),
    ("repro.optimize.tuple_problem:pareto_indices_2d", "optimize.pareto",
     None),
    ("repro.archsim.missmodel:synthetic_trace_buffer", "archsim.trace",
     None),
    # The profile store imports the generator inside its compute step.
    ("repro.archsim.workloads:synthetic_trace_buffer", "archsim.trace",
     None),
    ("repro.archsim.multiconfig:MultiConfigHierarchyEngine.run",
     "archsim.engine", lambda args, kwargs: len(args[1])),
    ("repro.archsim.setdist:two_level_profiles", "archsim.engine",
     lambda args, kwargs: len(args[0])),
    ("repro.perf.disk_cache:DiskCache.load", "perf.disk_cache.load", None),
    ("repro.perf.disk_cache:DiskCache.store", "perf.disk_cache.store", None),
)


def route_of(method: str, path: str) -> str:
    """The client route a service request belongs to."""
    path = path.partition("?")[0]
    if path.startswith("/v1/calibrate") or path.startswith("/v1/jobs"):
        return "jobs"
    if path.startswith("/v1/campaigns"):
        return "campaign"
    if path == "/metrics":
        return "metrics"
    if path.startswith("/v1/"):
        return path[len("/v1/"):]
    return path.strip("/") or "other"


#: Entry points wrapped inside the service daemon, on top of the
#: library ones.
SERVICE_PATCHES = (
    ("repro.service.server:ReproService.handle", "service.handle",
     lambda args, kwargs: route_of(args[1], args[2])),
    ("repro.service.batching:SweepBatcher.tables_for", "service.batch",
     None),
    ("repro.service.batching:SweepBatcher._evaluate",
     "service.batch_compute", None),
    ("repro.service.server:minimize_leakage", "optimize.minimize_leakage",
     None),
    ("repro.campaign.runner:build_plan", "campaign.plan", None),
)


def install(recorder: Recorder, patches: Iterable) -> None:
    for target, name, tag in patches:
        recorder.patch(target, name, tag=tag)


def zero_metrics() -> Dict[str, float]:
    return {name: 0.0 for name, _ in declared("per_layer")}


def _outermost(spans: Sequence[Span], name: str) -> List[Span]:
    """Spans called ``name`` that are not nested in another of the same."""
    chosen = []
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent is not None and parent.name != name:
            parent = parent.parent
        if parent is None:
            chosen.append(span)
    return chosen


def library_metrics(spans: Sequence[Span], n_ops: int) -> Dict[str, float]:
    """Per-op layer times and counts from library spans."""
    table = summarize(spans)
    per_op = 1000.0 / max(n_ops, 1)

    def total(name: str, column: str = "total") -> float:
        return table.get(name, {}).get(column, 0.0)

    grid_names = [f"cache.evaluate_grid.{component}"
                  for component in COMPONENTS.values()]
    engine = _outermost(spans, "archsim.engine")
    engine_seconds = sum(span.duration for span in engine)
    engine_accesses = sum(span.tag or 0 for span in engine)
    metrics = {
        "cache.evaluate_grid_ms": per_op * sum(total(n) for n in grid_names),
        "cache.evaluate_grid_calls": sum(
            total(n, "calls") for n in grid_names) / max(n_ops, 1),
        "cache.uniform_ms": per_op * total("cache.uniform"),
        "optimize.component_tables_self_ms":
            per_op * total("optimize.component_tables", "self"),
        "optimize.minimize_leakage_ms":
            per_op * total("optimize.minimize_leakage"),
        "optimize.tuple_problem_self_ms":
            per_op * total("optimize.tuple_problem", "self"),
        "optimize.pareto_ms": per_op * sum(
            span.duration for span in _outermost(spans, "optimize.pareto")),
        "archsim.trace_ms": per_op * sum(
            span.duration for span in _outermost(spans, "archsim.trace")),
        "archsim.engine_ms": per_op * engine_seconds,
        "archsim.engine_calls": len(engine) / max(n_ops, 1),
        "archsim.host_accesses_per_s":
            engine_accesses / engine_seconds if engine_seconds else 0.0,
        "perf.disk_cache_store_ms": per_op * total("perf.disk_cache.store"),
        "perf.disk_cache_load_ms": per_op * total("perf.disk_cache.load"),
    }
    for component, name in zip(COMPONENTS.values(), grid_names):
        metrics[f"cache.evaluate_grid.{component}_ms"] = per_op * total(name)
    return metrics


def counter_metrics(before: Dict[str, float], after: Dict[str, float],
                    n_ops: int) -> Dict[str, float]:
    """Per-op deltas of the program's own cache counters."""
    names = {
        "table_hits": "perf.table_cache_hits",
        "table_misses": "perf.table_cache_misses",
        "disk_hits": "perf.disk_cache_hits",
        "disk_misses": "perf.disk_cache_misses",
        "store_computes": "perf.profile_store_computes",
        "store_serves": "perf.profile_store_serves",
    }
    return {
        metric: (after.get(key, 0) - before.get(key, 0)) / max(n_ops, 1)
        for key, metric in names.items()
    }


def coverage(spans: Sequence[Span], started: float, ended: float) -> float:
    """Share of the timed phase ``[started, ended]`` that the program's
    patched entry points cover (union of every span's interval)."""
    return covered((started, ended),
                   [(span.start, span.end) for span in spans]) / (
        ended - started)
