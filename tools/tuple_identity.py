"""Exactness check for the component tables, the Figure 2 tuple problem
and the joint optimiser.

Write the reference outputs of one source tree, then compare two trees:

    PYTHONPATH=<tree-a>/src python tools/tuple_identity.py --out a.npz
    PYTHONPATH=<tree-b>/src python tools/tuple_identity.py --out b.npz
    python tools/tuple_identity.py --compare a.npz b.npz

``--out`` records three layers:

* the component tables: ``component_tables(model, space,
  use_cache=False)`` delays, leakages and energies of every component
  of Figure 2's 16 KB L1 and 1 MB L2 at every E9 (node, scaling style)
  pair, on the node's ``default_space`` and ``fast_space``, plus the
  65 nm models with the stack effect off and with gate tunnelling off;
* the tuple problem on E9's grid (both caches on the node's
  ``fast_space``, the five Figure 2 budgets: 70 (AMAT, energy) curves);
* ``repr(optimize_memory_system(spec2000, 1500 ps))``, the joint
  optimiser's design.

``--compare`` exits 1 unless both files hold the same keys and every
array is ``np.array_equal``.  Any change to the device, circuit or
component models, ``repro.optimize.pareto`` or
``repro.optimize.tuple_problem`` must pass it against the parent tree
(about 6 s per tree).
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


def collect() -> Dict[str, np.ndarray]:
    """Solve the checked problems; returns key -> array."""
    from repro import units
    from repro.archsim.missmodel import calibrated_miss_model
    from repro.cache.cache_model import CacheModel
    from repro.cache.config import l1_config, l2_config
    from repro.experiments.figure2 import fast_space
    from repro.optimize.joint import optimize_memory_system
    from repro.optimize.tuple_problem import solve_tuple_problem
    from repro.technology.nodes import NODES, SCALING_STYLES, node_technology

    miss = calibrated_miss_model("spec2000")
    out: Dict[str, np.ndarray] = {}
    for style in SCALING_STYLES:
        for node in NODES:
            technology = node_technology(node, style)
            _tables(out, f"{node}{style}",
                    CacheModel(l1_config(16), technology=technology),
                    CacheModel(l2_config(1024), technology=technology),
                    technology)
    technology = node_technology(65, "itrs")
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
            curves = solve_tuple_problem(
                CacheModel(l1_config(16), technology=technology),
                CacheModel(l2_config(1024), technology=technology),
                miss, space=fast_space(technology))
            for budget, curve in curves.items():
                key = f"{node}{style}{budget.n_tox}x{budget.n_vth}"
                out[key + "a"], out[key + "e"] = curve.amats, curve.energies
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
        n_tables = sum(key.startswith(TABLE_PREFIX) for key in common) // 3
        n_curves = (len(common) - 3 * n_tables
                    - (JOINT_KEY in common)) // 2
    for line in problems:
        print(line)
    if problems:
        print(f"FAIL: {len(problems)} difference(s)")
        return 1
    print(f"identical: {n_tables} component tables, {n_curves} curves "
          "and the joint design")
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
