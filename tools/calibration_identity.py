"""Exactness check for the FIFO and random calibration engine.

Write the reference outputs of one source tree, then compare two trees:

    PYTHONPATH=<tree-a>/src python tools/calibration_identity.py --out a.npz
    PYTHONPATH=<tree-b>/src python tools/calibration_identity.py --out b.npz
    python tools/calibration_identity.py --compare a.npz b.npz

``--out`` records two layers, for both FIFO and random:

* the default calibration grid with associativity axes (every L1 and
  L2 size of ``missmodel.L1_GRID_KB`` / ``L2_GRID_KB`` at every
  associativity of ``profile_store.SURFACE_ASSOCS``) on each standard
  workload at the library-default trace (300 k accesses, seed 1): every
  ``CacheStats`` field of both levels and ``memory_accesses`` of each
  point, as the calibration's one engine pass produces them (L1-curve
  points carry no L2);
* the spec2000 dense profile-store surfaces: every (set count,
  associativity) miss rate of both levels.

It prints the wall time of each engine pass and surface.  ``--compare``
exits 1 unless both files hold the same keys and every array is
``np.array_equal``.  Any change to ``repro.archsim.multiconfig`` must
pass it against the parent tree (~30 s per tree).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from typing import Dict

import numpy as np

#: Trace length and seed of the recorded passes (the library defaults).
N_ACCESSES = 300_000
SEED = 1
POLICIES = ("fifo", "random")
#: Prefix of the grid-point keys (one array per point).
GRID_PREFIX = "grid/"
#: Prefix of the dense-surface keys (rates and shapes per level).
SURFACE_PREFIX = "surface/"


def _grid(out: Dict[str, np.ndarray], name: str, spec, policy: str) -> None:
    """Record every statistic of every default-grid point."""
    from repro.archsim import missmodel
    from repro.archsim.multiconfig import MultiConfigHierarchyEngine
    from repro.archsim.stats import CacheStats
    from repro.archsim.workloads import synthetic_trace_buffer
    from repro.perf.profile_store import SURFACE_ASSOCS

    points = missmodel._grid_points(
        missmodel.L1_GRID_KB, missmodel.L2_GRID_KB,
        SURFACE_ASSOCS, SURFACE_ASSOCS,
    )
    engine_points = []
    for level, kb, assoc in points:
        l1_config, l2_config = missmodel._point_configs(level, kb, assoc)
        engine_points.append(
            (l1_config, None) if level == "l1" else (l1_config, l2_config)
        )
    trace = synthetic_trace_buffer(spec, N_ACCESSES, seed=SEED,
                                   block_bytes=64)
    start = time.perf_counter()
    results = MultiConfigHierarchyEngine(engine_points, policy).run(trace)
    elapsed = time.perf_counter() - start
    print(f"grid {name} {policy}: {len(points)} points, "
          f"engine {elapsed:.3f} s")
    fields = [field.name for field in dataclasses.fields(CacheStats)]
    for (level, kb, assoc), result in zip(points, results):
        key = f"{GRID_PREFIX}{name}/{policy}/{level}/{kb}k/{assoc}w"
        out[key] = np.array(
            [getattr(result.l1, field) for field in fields]
            + [getattr(result.l2, field) for field in fields]
            + [result.memory_accesses]
        )


def _surface(out: Dict[str, np.ndarray], spec, policy: str) -> None:
    """Record both levels of one dense profile-store surface."""
    from repro.perf import profile_store

    start = time.perf_counter()
    surface = profile_store._compute_surface(spec, policy, N_ACCESSES, SEED)
    elapsed = time.perf_counter() - start
    print(f"surface {spec.name} {policy}: {elapsed:.3f} s")
    for level, rates in (("l1", surface.l1_rates), ("l2", surface.l2_rates)):
        key = f"{SURFACE_PREFIX}{spec.name}/{policy}/{level}/"
        out[key + "shapes"] = np.array([(sets, assoc)
                                        for sets, assoc, _ in rates])
        out[key + "rates"] = np.array([rate for _, _, rate in rates])


def collect() -> Dict[str, np.ndarray]:
    """Run the checked passes; returns key -> array."""
    from repro.archsim.workloads import SPEC2000_LIKE, STANDARD_WORKLOADS

    out: Dict[str, np.ndarray] = {}
    for policy in POLICIES:
        for name, spec in STANDARD_WORKLOADS.items():
            _grid(out, name, spec, policy)
        _surface(out, SPEC2000_LIKE, policy)
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
    for line in problems:
        print(line)
    if problems:
        print(f"FAIL: {len(problems)} difference(s)")
        return 1
    n_points = sum(key.startswith(GRID_PREFIX) for key in common)
    n_surfaces = sum(key.startswith(SURFACE_PREFIX) for key in common) // 4
    print(f"identical: {n_points} grid points and {n_surfaces} dense "
          f"surfaces")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", metavar="FILE.npz",
                       help="run and write this tree's outputs")
    group.add_argument("--compare", nargs=2, metavar=("A.npz", "B.npz"),
                       help="check two written files for identity")
    arguments = parser.parse_args()
    if arguments.compare:
        return compare(*arguments.compare)
    np.savez(arguments.out, **collect())
    return 0


if __name__ == "__main__":
    sys.exit(main())
