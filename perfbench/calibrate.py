"""``calibrate``: cold miss-model calibrations on the calibration path.

Each op is one ``measure_miss_model`` call at the library-default trace
length for one (workload, policy) pair, with a trace seed no other op
uses, against a cache directory made fresh for the run, so nothing is
served from the disk cache or the profile store.  The calls pass
neither ``engine=`` nor ``estimator=``: whatever route the library picks
by default is what gets measured.

The nine (workload, policy) pairs come in shuffled blocks of nine, so
every run has the same mix whatever the seed.
"""

from __future__ import annotations

import inspect
import shutil
import tempfile
from itertools import product
from typing import Dict, Iterator, List, NamedTuple, Optional

from perfbench.common import SCRATCH, balanced_blocks, seeded_rng

WORKLOADS = ("spec2000", "specweb", "tpcc")
POLICIES = ("lru", "fifo", "random")
#: Ops per round of the mix (one shuffled block of all pairs).
ROUND = len(WORKLOADS) * len(POLICIES)


class Calibration(NamedTuple):
    index: int
    workload: str
    policy: str
    trace_seed: int
    #: The grid point the output check re-simulates.
    check_level: str
    check_kb: int


def calibrations(seed: int, l1_grid_kb, l2_grid_kb,
                 count: int = 10_000) -> Iterator[Calibration]:
    """The seeded op sequence; trace seeds are distinct within a run."""
    rng = seeded_rng(seed, "calibrate")
    pairs = balanced_blocks(rng, list(product(WORKLOADS, POLICIES)), count)
    first_seed = rng.randrange(10_000, 1_000_000_000)
    for index, (workload, policy) in enumerate(pairs):
        level = rng.choice(("l1", "l2"))
        kb = rng.choice(tuple(l1_grid_kb if level == "l1" else l2_grid_kb))
        yield Calibration(index, workload, policy, first_seed + index,
                          level, kb)


def kind(op: Calibration) -> str:
    """The op kind an op's latency is grouped under."""
    return f"{op.workload}-{op.policy}"


class Workload:
    """Library-side state for the calibrate workload."""

    def __init__(self, seed: int) -> None:
        from repro.archsim import missmodel
        from repro.archsim.hierarchy import ArrayTwoLevelHierarchy
        from repro.archsim.workloads import (
            STANDARD_WORKLOADS,
            synthetic_trace_buffer,
        )
        from repro.perf import disk_cache_info, profile_store_info

        self._measure = missmodel.measure_miss_model
        self._point_configs = missmodel._point_configs
        self._hierarchy = ArrayTwoLevelHierarchy
        self._trace = synthetic_trace_buffer
        self._specs = STANDARD_WORKLOADS
        self._disk_info = disk_cache_info
        self._store_info = profile_store_info
        self.n_accesses = inspect.signature(
            missmodel.measure_miss_model
        ).parameters["n_accesses"].default
        SCRATCH.mkdir(exist_ok=True)
        self._directories: List[str] = []
        self.cache_dir = self.fresh_directory()
        self.sequence = calibrations(
            seed, missmodel.L1_GRID_KB, missmodel.L2_GRID_KB
        )

    def fresh_directory(self) -> str:
        directory = tempfile.mkdtemp(prefix="calibrate-", dir=SCRATCH)
        self._directories.append(directory)
        return directory

    def reset(self) -> None:
        """Start over from an empty cache (the determinism replay)."""
        self.cache_dir = self.fresh_directory()

    def close(self) -> None:
        for directory in self._directories:
            shutil.rmtree(directory, ignore_errors=True)

    def counters(self) -> Dict[str, int]:
        disk = self._disk_info()
        store = self._store_info()
        return {
            "disk_hits": disk.hits,
            "disk_misses": disk.misses,
            "store_computes": store.misses,
            "store_serves": store.hits + store.disk_hits,
        }

    def run(self, op: Calibration):
        return self._measure(
            self._specs[op.workload],
            seed=op.trace_seed,
            cache_dir=self.cache_dir,
            policy=op.policy,
        )

    def check(self, op: Calibration, model) -> Optional[str]:
        """Re-simulate one grid point with the per-point array engine."""
        l1_config, l2_config = self._point_configs(op.check_level, op.check_kb)
        trace = self._trace(self._specs[op.workload], self.n_accesses,
                            seed=op.trace_seed, block_bytes=64)
        result = self._hierarchy(l1_config, l2_config, op.policy).run(trace)
        stats = result.l1 if op.check_level == "l1" else result.l2
        curve = dict(model.l1_curve if op.check_level == "l1"
                     else model.l2_curve)
        rate = curve.get(op.check_kb * 1024)
        # Same trace, same level: the model's rate times the level's
        # access count must give back the simulated miss count exactly.
        misses = None if rate is None else round(rate * stats.accesses)
        if misses != stats.misses or rate != stats.miss_rate:
            return (f"{op.workload}/{op.policy} {op.check_level} "
                    f"{op.check_kb} KB: model gives {misses} misses "
                    f"(rate {rate!r}), per-point simulation "
                    f"{stats.misses} (rate {stats.miss_rate!r})")
        return None


#: Counting wrappers for the determinism gate.
GATE_PATCHES = (
    ("repro.archsim.missmodel:synthetic_trace_buffer", "archsim.trace",
     None),
    ("repro.archsim.multiconfig:MultiConfigHierarchyEngine.run",
     "archsim.engine", None),
    ("repro.archsim.setdist:two_level_profiles", "archsim.engine", None),
)
