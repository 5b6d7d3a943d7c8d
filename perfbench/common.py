"""Statistics, host probe and process readings shared by the workloads."""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Repository root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for run-time files (cache directories, span dumps);
#: inside the checkout and named in ``.gitignore``.
SCRATCH = ROOT / ".perfbench"



def declared(section: str) -> List[Tuple[str, str]]:
    """``(name, unit)`` of the ``end_to_end`` or ``per_layer`` metrics
    of ``BENCHMARK.json``, in file order: the one list of what a run
    reports."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return [(metric["name"], metric["unit"])
                for metric in json.load(handle)[section]]


#: Minimum number of samples that must lie beyond a reported tail.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float],
         beyond: int = TAIL_BEYOND) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, n_beyond)`` where ``n_beyond`` counts
    samples strictly greater than ``value`` and ``percentile`` is the
    share of samples at or below it, or ``None`` when there are too few
    samples for any such percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = n - beyond - 1
    # Ties at the cut would leave fewer than ``beyond`` strictly above.
    while index >= 0 and ordered[index] == ordered[index + 1]:
        index -= 1
    if index < 0:
        return None
    n_beyond = n - index - 1
    return ordered[index], 100.0 * (index + 1) / n, n_beyond


def geometric_mean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


def kind_medians(kinds: Sequence[str],
                 latencies: Sequence[float]) -> Dict[str, float]:
    """The median latency of each op kind."""
    grouped: Dict[str, List[float]] = {}
    for kind, latency in zip(kinds, latencies):
        grouped.setdefault(kind, []).append(latency)
    return {kind: median(values) for kind, values in grouped.items()}


def typical_rate(medians_ms: Dict[str, float], shares: Dict[str, float],
                 concurrency: int = 1) -> float:
    """Ops per second of a closed loop whose ops take their kind's
    median latency: ``concurrency`` over the mix's mean latency
    (Little's law), each kind weighted by its share of the mix.

    Medians rather than the wall clock, so that a few ops slowed by the
    host do not move the figure.
    """
    total = sum(shares.values())
    mean_ms = sum(shares[kind] * medians_ms[kind] for kind in shares) / total
    return 1000.0 * concurrency / mean_ms


def seeded_rng(seed: int, *stream) -> random.Random:
    """An independent generator per (seed, stream) pair."""
    return random.Random(repr((int(seed),) + tuple(stream)))


def balanced_blocks(rng: random.Random, kinds: Sequence, count: int) -> List:
    """``count`` draws made of whole shuffled copies of ``kinds``.

    Every run of the same length has the same mix of kinds, whatever
    the seed; only the order changes.
    """
    drawn: List = []
    while len(drawn) < count:
        block = list(kinds)
        rng.shuffle(block)
        drawn.extend(block)
    return drawn[:count]


def host_probe(repeats: int = 7) -> float:
    """Median milliseconds of a fixed stdlib + numpy loop.

    Touches no repository code, so a shift in it between runs is a
    shift in the machine, not in the program.  It mixes interpreter
    work, cache-resident arithmetic and a pass over arrays larger than
    the last-level cache, since the workloads do all three.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    matrix = rng.random((200, 200))
    stream = rng.random(2_000_000)
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        product = matrix
        for _ in range(4):
            product = product @ matrix
            product /= product.max()
        ordered = np.sort(stream[:300_000])
        scaled = stream * 1.5 + ordered.mean()
        keys = sorted(str(value) for value in range(20000))
        counts: Dict[int, int] = {}
        for value in range(40000):
            counts[value % 97] = counts.get(value % 97, 0) + 1
        if not keys or float(product[0, 0]) < 0.0 or scaled[0] < 0.0:
            raise AssertionError("host probe arithmetic failed")
        samples.append((time.perf_counter() - started) * 1000.0)
    return median(samples)


#: About what one :func:`pace` pass takes, in ms, on the 2-core VM whose
#: figures ``README.md`` quotes, when its host is quiet.  The
#: normalised figures are quoted at this speed.
PACE_NOMINAL_MS = 7.0
_PACE_INPUTS: Dict[str, object] = {}


def pace() -> float:
    """Milliseconds of one pass of a fixed single-threaded loop.

    Run between set-ups and between ops, it tells how fast the host is
    running at that moment: the host slows down for seconds to minutes
    at a time, and the loop slows with it.  Like the program it
    mixes interpreter work with numpy passes over arrays that fit the
    per-core cache and over one that does not.  It touches no
    repository code and calls no multithreaded BLAS routine.
    """
    import numpy as np

    if not _PACE_INPUTS:
        rng = np.random.default_rng(2024)
        _PACE_INPUTS["small"] = rng.random(50_000)
        # 4.8 MB: more than a 4 MB per-core L2 cache.
        _PACE_INPUTS["large"] = rng.random(600_000)
    small, large = _PACE_INPUTS["small"], _PACE_INPUTS["large"]
    started = time.perf_counter()
    counts: Dict[int, int] = {}
    for value in range(40_000):
        counts[value % 89] = counts.get(value % 89, 0) + value
    for _ in range(12):
        scaled = np.exp(-small) * 1.5 + np.sqrt(small)
    ordered = np.sort(small)
    total = float(large.sum()) + float(large.max())
    if len(counts) != 89 or scaled[0] <= 0.0 or ordered[0] < 0.0 \
            or total <= 0.0:
        raise AssertionError("pace arithmetic failed")
    return (time.perf_counter() - started) * 1000.0


def normalised(values: Sequence[float],
               paces_ms: Sequence[float]) -> List[float]:
    """Each value at the host speed :data:`PACE_NOMINAL_MS` stands for.

    ``paces_ms`` holds one :func:`pace` pass before the first value and
    one after each value; a value is scaled by the nominal pass over the
    mean of the passes either side of it.
    """
    return [value * 2.0 * PACE_NOMINAL_MS / (before + after)
            for value, before, after in zip(values, paces_ms, paces_ms[1:])]


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds consumed so far by process ``pid``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def relative_close(a: float, b: float, tolerance: float = 1e-9) -> bool:
    return abs(a - b) <= tolerance * max(abs(a), abs(b), 1e-300)


def nested_close(a, b, tolerance: float = 1e-9) -> bool:
    """Structural equality with numbers compared within ``tolerance``."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            nested_close(a[key], b[key], tolerance) for key in a
        )
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            nested_close(x, y, tolerance) for x, y in zip(a, b)
        )
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return relative_close(float(a), float(b), tolerance)
    return a == b
