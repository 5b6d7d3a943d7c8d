"""Exactness check for the component tables, the Section 4 schemes, the
Figure 2 tuple problem and the joint optimiser.

Write the reference outputs of one source tree, then compare two trees:

    PYTHONPATH=<tree-a>/src python tools/tuple_identity.py --out a.npz
    PYTHONPATH=<tree-b>/src python tools/tuple_identity.py --out b.npz
    python tools/tuple_identity.py --compare a.npz b.npz

``--out`` records four layers:

* the component tables: ``component_tables(model, space,
  use_cache=False)`` delays, leakages and energies of every component
  of Figure 2's 16 KB L1 and 1 MB L2 at every E9 (node, scaling style)
  pair, on the node's ``default_space`` and ``fast_space``, plus the
  65 nm models with the stack effect off and with gate tunnelling off;
* the schemes: ``minimize_leakage`` for Schemes I, II and III on both
  caches at every E9 pair (``default_space``), at each slack of
  :data:`SLACKS` over the fastest uniform design — the assignment's
  eight knob values, the access time and the leakage, or
  ``best_achievable`` alone if infeasible — plus the Scheme I
  ``leakage_delay_frontier`` of the 65 nm L1 with every point's knobs;
* the tuple problem on E9's grid (both caches on the node's
  ``fast_space``, the five Figure 2 budgets: 70 (AMAT, energy) curves),
  plus, at 65 nm ``itrs`` and 8 nm ``cons``, the same budgets with
  ``fill_factor=0.0``, with an 80 ns / 10 nJ main memory, and on the
  solver's default ``coarse_space`` (30 more curves);
* ``repr(optimize_memory_system(spec2000, 1500 ps))``, the joint
  optimiser's design.

``--compare`` exits 1 unless both files hold the same keys and every
array is ``np.array_equal``.  Any change to the device, circuit or
component models, ``repro.optimize.pareto``,
``repro.optimize.single_cache`` or ``repro.optimize.tuple_problem``
must pass it against the parent tree (10–20 s per tree).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict

import numpy as np

#: Key of the joint optimiser's design repr in the ``.npz`` file.
JOINT_KEY = "joint_spec2000_1500ps"
#: Prefix of the component-table keys.
TABLE_PREFIX = "table/"
#: Prefix of the single-cache solve keys (one array per solve).
SOLVE_PREFIX = "scheme/solve/"
#: Prefix of the Scheme I frontier keys.
FRONTIER_PREFIX = "scheme/frontier/"
#: Access-time slacks over the fastest uniform design.
SLACKS = (0.0, 0.01, 0.05, 0.2, 0.5, 1.0, 100.0)
#: E9 pairs whose tuple problem is also solved under :data:`VARIANTS`.
VARIANT_PAIRS = ((65, "itrs"), (8, "cons"))


def _tables(out: Dict[str, np.ndarray], label: str, l1, l2,
            technology) -> None:
    """Record both caches' component tables on both spaces."""
    from repro.experiments.figure2 import fast_space
    from repro.optimize.single_cache import component_tables
    from repro.optimize.space import default_space

    spaces = {"default": default_space(technology=technology),
              "fast": fast_space(technology)}
    for cache, model in (("l1", l1), ("l2", l2)):
        for space_name, space in spaces.items():
            tables = component_tables(model, space, use_cache=False)
            for name, table in tables.items():
                key = f"{TABLE_PREFIX}{label}/{cache}/{space_name}/{name}/"
                out[key + "d"] = table.delays
                out[key + "l"] = table.leakages
                out[key + "e"] = table.energies


def _knobs(assignment) -> list:
    return [value for _, point in assignment.components() for value in point]


def _schemes(out: Dict[str, np.ndarray], label: str, l1, l2) -> None:
    """Record every scheme's optimum on both caches over the slacks."""
    from repro.errors import InfeasibleConstraintError
    from repro.optimize.schemes import Scheme
    from repro.optimize.single_cache import component_tables, minimize_leakage

    for cache, model in (("l1", l1), ("l2", l2)):
        tables = component_tables(model)
        fastest = float(sum(table.delays for table in tables.values()).min())
        for scheme in Scheme:
            for slack in SLACKS:
                key = f"{SOLVE_PREFIX}{label}/{cache}/{scheme.value}/{slack}"
                target = fastest * (1.0 + slack)
                try:
                    result = minimize_leakage(model, scheme, target,
                                              tables=tables)
                except InfeasibleConstraintError as error:
                    out[key] = np.array([error.best_achievable])
                    continue
                out[key] = np.array(_knobs(result.assignment) + [
                    result.access_time, result.leakage_power])


def _frontier(out: Dict[str, np.ndarray], l1) -> None:
    """Record the Scheme I (delay, leakage) front of one cache."""
    from repro.optimize.schemes import Scheme
    from repro.optimize.single_cache import leakage_delay_frontier

    delays, leakages, assignments = leakage_delay_frontier(
        l1, Scheme.PER_COMPONENT)
    key = f"{FRONTIER_PREFIX}65itrs/l1/"
    out[key + "d"], out[key + "l"] = delays, leakages
    out[key + "knobs"] = np.array([_knobs(a) for a in assignments])


def _curves(out: Dict[str, np.ndarray], label: str, technology, miss,
            **options) -> None:
    """Record Figure 2's curves for the 16 KB L1 and 1 MB L2; ``options``
    go to ``solve_tuple_problem`` (its default space if none given)."""
    from repro.cache.cache_model import CacheModel
    from repro.cache.config import l1_config, l2_config
    from repro.optimize.tuple_problem import solve_tuple_problem

    curves = solve_tuple_problem(
        CacheModel(l1_config(16), technology=technology),
        CacheModel(l2_config(1024), technology=technology),
        miss, **options)
    for budget, curve in curves.items():
        key = f"{label}{budget.n_tox}x{budget.n_vth}"
        out[key + "a"], out[key + "e"] = curve.amats, curve.energies


def collect() -> Dict[str, np.ndarray]:
    """Solve the checked problems; returns key -> array."""
    from repro import units
    from repro.archsim.missmodel import calibrated_miss_model
    from repro.cache.cache_model import CacheModel
    from repro.cache.config import l1_config, l2_config
    from repro.energy.dynamic import MainMemoryModel
    from repro.experiments.figure2 import fast_space
    from repro.optimize.joint import optimize_memory_system
    from repro.technology.nodes import NODES, SCALING_STYLES, node_technology

    miss = calibrated_miss_model("spec2000")
    out: Dict[str, np.ndarray] = {}
    for style in SCALING_STYLES:
        for node in NODES:
            technology = node_technology(node, style)
            l1 = CacheModel(l1_config(16), technology=technology)
            l2 = CacheModel(l2_config(1024), technology=technology)
            _tables(out, f"{node}{style}", l1, l2, technology)
            _schemes(out, f"{node}{style}", l1, l2)
    technology = node_technology(65, "itrs")
    _frontier(out, CacheModel(l1_config(16), technology=technology))
    for label, switch in (("nostack", "stack_enabled"),
                          ("nogate", "gate_enabled")):
        _tables(out, f"65{label}",
                CacheModel(l1_config(16), technology=technology,
                           **{switch: False}),
                CacheModel(l2_config(1024), technology=technology,
                           **{switch: False}),
                technology)
    for style in SCALING_STYLES:
        for node in NODES:
            technology = node_technology(node, style)
            _curves(out, f"{node}{style}", technology, miss,
                    space=fast_space(technology))
    for node, style in VARIANT_PAIRS:
        technology = node_technology(node, style)
        for variant, options in (
            ("fill0", {"space": fast_space(technology), "fill_factor": 0.0}),
            ("mem80ns", {"space": fast_space(technology),
                         "memory": MainMemoryModel(latency=80e-9,
                                                   energy_per_access=10e-9)}),
            ("coarse", {}),
        ):
            _curves(out, f"{node}{style}-{variant}-", technology, miss,
                    **options)
    out[JOINT_KEY] = np.array(
        repr(optimize_memory_system(miss, units.ps(1500))))
    return out


def compare(first: str, second: str) -> int:
    """Print the differing keys; returns the process exit code."""
    with np.load(first) as a, np.load(second) as b:
        keys_a, keys_b = set(a.files), set(b.files)
        problems = [f"only in {first}: {key}"
                    for key in sorted(keys_a - keys_b)]
        problems += [f"only in {second}: {key}"
                     for key in sorted(keys_b - keys_a)]
        problems += [f"differs: {key}" for key in sorted(keys_a & keys_b)
                     if not np.array_equal(a[key], b[key])]
        common = keys_a & keys_b
    counts = {prefix: sum(key.startswith(prefix) for key in common)
              for prefix in (TABLE_PREFIX, SOLVE_PREFIX, FRONTIER_PREFIX)}
    n_curves = (len(common) - sum(counts.values())
                - (JOINT_KEY in common)) // 2
    for line in problems:
        print(line)
    if problems:
        print(f"FAIL: {len(problems)} difference(s)")
        return 1
    print(f"identical: {counts[TABLE_PREFIX] // 3} component tables, "
          f"{counts[SOLVE_PREFIX]} scheme solves, "
          f"{counts[FRONTIER_PREFIX] // 3} Scheme I frontier, "
          f"{n_curves} curves and the joint design")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", metavar="FILE.npz",
                       help="solve and write this tree's outputs")
    group.add_argument("--compare", nargs=2, metavar=("A.npz", "B.npz"),
                       help="check two written files for identity")
    arguments = parser.parse_args()
    if arguments.compare:
        return compare(*arguments.compare)
    np.savez(arguments.out, **collect())
    return 0


if __name__ == "__main__":
    sys.exit(main())
