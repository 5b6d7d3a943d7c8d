"""``explore``: cold two-level design queries on the evaluation path.

Each op builds fresh L1 and L2 :class:`CacheModel` objects for one
(L1 size/assoc, L2 size/assoc, node, scaling style) query, builds their
default-space component tables, minimises leakage under Schemes I-III
per cache at a seeded slack above that cache's fastest Scheme III
access time, and solves the Figure 2 tuple problem on the E6 5 x 3
``fast_space`` with the committed spec2000 miss model.

The queries are four (node, scaling style) pairs from the grid of the
repository's E9 experiment (Figure 2 rerun per node) at Figure 2's
cache shapes, every pair once per round, visited in seeded shuffled
rounds with seeded slacks.  Each op starts from an empty table cache,
so every table build is cold.  Four pairs rather than all fourteen, so
that a run repeats each pair several times and its figures can come
from per-pair medians.
"""

from __future__ import annotations

from typing import Dict, Iterator, NamedTuple, Optional

from perfbench.common import relative_close, seeded_rng

#: Figure 2's shapes, which E9 keeps at every node: 16 KB 2-way L1 and
#: 1 MB 8-way L2 (the ``l1_config``/``l2_config`` defaults).
L1_KB, L1_ASSOC = 16, 2
L2_KB, L2_ASSOC = 1024, 8
#: The design points: both ends of E9's node range and two nodes
#: between, alternating the scaling style.  Every run measures whole
#: shuffled copies of this pool, so each pair has the same share
#: whatever the seed.
POOL = ((65, "itrs"), (32, "cons"), (16, "itrs"), (8, "cons"))
#: Ops per round of the mix (one shuffled copy of the pool).
ROUND = len(POOL)
#: Leakage comparisons across schemes sum components in different
#: orders, so allow a few ulps.
ORDER_TOLERANCE = 1e-12


class Query(NamedTuple):
    index: int
    node: int
    style: str
    l1_slack: float
    l2_slack: float


def queries(seed: int) -> Iterator[Query]:
    """The seeded op sequence: shuffled copies of :data:`POOL`, each
    query with its own seeded slacks."""
    rng = seeded_rng(seed, "explore")
    index = 0
    while True:
        pool = list(POOL)
        rng.shuffle(pool)
        for node, style in pool:
            yield Query(index, node, style,
                        round(rng.uniform(0.05, 0.5), 6),
                        round(rng.uniform(0.05, 0.5), 6))
            index += 1


def kind(query: Query) -> str:
    """The op kind a query's latency is grouped under."""
    return f"{query.node}nm-{query.style}"


class Workload:
    """Library-side state for the explore workload."""

    def __init__(self, seed: int) -> None:
        from repro.archsim.missmodel import calibrated_miss_model
        from repro.cache.cache_model import CacheModel
        from repro.cache.config import l1_config, l2_config
        from repro.experiments.figure2 import fast_space
        from repro.optimize import single_cache, tuple_problem
        from repro.optimize.schemes import Scheme
        from repro.perf import cache_info, clear_cache
        from repro.technology.nodes import node_technology

        self._cache_model = CacheModel
        self._l1_config = l1_config(L1_KB, associativity=L1_ASSOC)
        self._l2_config = l2_config(L2_KB, associativity=L2_ASSOC)
        self._fast_space = fast_space
        self._schemes = (Scheme.PER_COMPONENT, Scheme.CELL_VS_PERIPHERY,
                         Scheme.UNIFORM)
        # Called through their modules, so the traced run's wrappers
        # (installed in those namespaces) see these calls.
        self._single_cache = single_cache
        self._tuple_problem = tuple_problem
        self._cache_info = cache_info
        self._clear_cache = clear_cache
        self._node_technology = node_technology
        self.miss_model = calibrated_miss_model("spec2000")
        self.sequence = queries(seed)
        self._counted = (0, 0)

    def reset(self) -> None:
        """Empty the table cache, keeping the counters cumulative."""
        info = self._cache_info()
        self._counted = (self._counted[0] + info.hits,
                         self._counted[1] + info.misses)
        self._clear_cache()

    def close(self) -> None:
        """Nothing to release: the workload keeps no files."""

    def counters(self) -> Dict[str, int]:
        info = self._cache_info()
        return {"table_hits": self._counted[0] + info.hits,
                "table_misses": self._counted[1] + info.misses}

    def run(self, query: Query) -> dict:
        """One design query; returns what the output checks need."""
        self.reset()
        technology = self._node_technology(query.node, query.style)
        models = (self._cache_model(self._l1_config, technology=technology),
                  self._cache_model(self._l2_config, technology=technology))
        results = []
        for model, slack in zip(models, (query.l1_slack, query.l2_slack)):
            tables = self._single_cache.component_tables(model)
            fastest = float(sum(table.delays for table in tables.values())
                            .min())
            target = fastest * (1.0 + slack)
            results.append([
                self._single_cache.minimize_leakage(model, scheme, target)
                for scheme in self._schemes
            ])
        curves = self._tuple_problem.solve_tuple_problem(
            models[0], models[1], self.miss_model,
            space=self._fast_space(technology))
        return {"models": models, "results": results, "curves": curves}

    def check(self, query: Query, outcome: dict) -> Optional[str]:
        """Oracle checks; returns a failure description or ``None``."""
        for model, per_scheme in zip(outcome["models"], outcome["results"]):
            for result in per_scheme:
                scalar = model.evaluate(result.assignment)
                if not relative_close(scalar.access_time, result.access_time):
                    return (f"{result.scheme}: scalar access time "
                            f"{scalar.access_time!r} != {result.access_time!r}")
                if not relative_close(scalar.leakage_power,
                                      result.leakage_power):
                    return (f"{result.scheme}: scalar leakage "
                            f"{scalar.leakage_power!r} != "
                            f"{result.leakage_power!r}")
                if result.access_time > result.delay_constraint:
                    return f"{result.scheme}: misses its delay target"
            leakages = [result.leakage_power for result in per_scheme]
            for finer, coarser in zip(leakages, leakages[1:]):
                if finer > coarser * (1.0 + ORDER_TOLERANCE):
                    return f"scheme leakage order broken: {leakages}"
        curves = outcome["curves"]
        checkpoints = sorted({float(a) for curve in curves.values()
                              for a in curve.amats})
        for big in curves:
            for small in curves:
                if big == small or big.n_tox < small.n_tox \
                        or big.n_vth < small.n_vth:
                    continue
                for checkpoint in checkpoints:
                    more = curves[big].energy_at(checkpoint)
                    fewer = curves[small].energy_at(checkpoint)
                    if more > fewer * (1.0 + ORDER_TOLERANCE):
                        return (f"budget {big.label} costs more than "
                                f"{small.label} at AMAT {checkpoint!r}")
        return None


#: Counting wrappers for the determinism gate.
GATE_PATCHES = (
    ("repro.cache.components:_ComponentBase.evaluate_grid",
     "cache.evaluate_grid", None),
)
