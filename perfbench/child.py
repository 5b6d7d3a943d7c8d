"""The program process for the library workloads (explore, calibrate).

``python perfbench/child.py WORKLOAD --seed N --seconds S [--trace]
[--setup-only]`` imports the library, builds the workload's fixed
inputs, prints ``READY`` and then runs a closed single-threaded loop of
whole rounds of the workload's op mix for about ``S`` seconds.  After
the timed phase it runs the output checks and the determinism gate, and
prints one JSON line with the raw measurements for ``run.py`` to turn
into metrics.

The parent times set-up from just before it starts this process until
``READY`` arrives, so set-up covers interpreter start, imports and
fixed inputs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent),
                str(Path(__file__).resolve().parent.parent / "src")]

from perfbench import layers  # noqa: E402
from perfbench.common import host_probe, pace, peak_rss_mb  # noqa: E402
from perfbench.spans import Recorder  # noqa: E402

#: Ops at the start of the timed phase that the determinism gate
#: replays in fresh state.
GATE_PREFIX = 2


class GateError(RuntimeError):
    """Counters that must repeat exactly did not."""


def _workload_module(name: str):
    if name == "explore":
        from perfbench import explore as module
    elif name == "calibrate":
        from perfbench import calibrate as module
    else:
        raise SystemExit(f"unknown library workload {name!r}")
    return module


def _delta(before: dict, after: dict) -> dict:
    return {key: after.get(key, 0) - before.get(key, 0) for key in after}


def _nonzero(counts: dict) -> dict:
    return {key: value for key, value in counts.items() if value}


def _counters(workload, gate: Recorder) -> dict:
    """The workload's cache counters plus the gate's call counts."""
    counts = workload.counters()
    counts.update((name + "_calls", value)
                  for name, value in gate.counts.items())
    return counts


def _run_op(workload, gate: Recorder, op):
    """``(outcome, error, seconds, counter deltas)`` of one op."""
    before = _counters(workload, gate)
    started = time.perf_counter()
    try:
        outcome, error = workload.run(op), None
    except Exception as failure:  # noqa: BLE001 - counted as failed
        outcome, error = None, f"{type(failure).__name__}: {failure}"
    seconds = time.perf_counter() - started
    return outcome, error, seconds, _delta(before, _counters(workload, gate))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    arguments = parser.parse_args(argv)

    module = _workload_module(arguments.workload)
    workload = module.Workload(arguments.seed)
    try:
        print("READY", flush=True)
        if not arguments.setup_only:
            measure(arguments, module, workload)
    finally:
        workload.close()
    return 0


def measure(arguments, module, workload) -> None:
    """Timed phase, output checks, determinism gate; prints the report."""
    # Call counts for the gate are kept in the timed phase too; the
    # traced run's span wrappers go around these counting ones.
    gate = Recorder(keep_spans=False)
    layers.install(gate, module.GATE_PATCHES)
    try:
        report = _measure(arguments, module, workload, gate)
    finally:
        gate.unpatch()
    print(json.dumps(report), flush=True)


def _measure(arguments, module, workload, gate: Recorder) -> dict:
    recorder = None
    if arguments.trace:
        recorder = Recorder()
        layers.install(recorder, layers.LIBRARY_PATCHES)
    try:
        probe_before = host_probe()
        records = []
        # Host speed before the first op and after every op (untraced
        # runs only, so that the traced run's spans cover its timed
        # phase).
        paces = [] if recorder is not None else [pace()]
        started = time.perf_counter()
        deadline = started + arguments.seconds
        # Whole rounds only, so every run measures the same mix whatever
        # the seed.  The loop stops before a round that would end past
        # the deadline (judged by the last round's length); the first
        # round always runs.
        while True:
            round_started = time.perf_counter()
            ops = list(itertools.islice(workload.sequence, module.ROUND))
            if len(ops) < module.ROUND:
                raise SystemExit("op sequence ran dry before the deadline")
            for op in ops:
                if recorder is not None:
                    recorder.set_op(op.index)
                records.append((op,) + _run_op(workload, gate, op))
                if recorder is None:
                    paces.append(pace())
            ended = time.perf_counter()
            if 2 * ended - round_started > deadline:
                break
        rss = peak_rss_mb()
    finally:
        if recorder is not None:
            recorder.unpatch()
    probe_after = host_probe()

    failures = []
    for op, outcome, error, _, _ in records:
        if error is None:
            error = workload.check(op, outcome)
        if error is not None:
            failures.append(f"op {op.index}: {error}")

    # Determinism gate: the first ops, replayed in fresh state, must
    # count exactly the cache events and layer calls they counted in the
    # timed phase.
    workload.reset()
    for op, _, _, _, counts in records[:GATE_PREFIX]:
        replayed = _run_op(workload, gate, op)[3]
        if _nonzero(replayed) != _nonzero(counts):
            raise GateError(
                f"{arguments.workload}: counters of op {op.index} do not "
                f"repeat: timed {counts}, replay {replayed}")
    rounds = len(records) // module.ROUND
    totals = {key: sum(record[4].get(key, 0) for record in records)
              for key in sorted({key for *_, counts in records
                                 for key in counts})}

    report = {
        "latencies": [record[3] for record in records],
        "kinds": [module.kind(record[0]) for record in records],
        "paces": paces,
        "wall": ended - started,
        "ops": len(records),
        "failures": failures,
        "peak_rss_mb": rss,
        "probe_ms": [probe_before, probe_after],
        "counters": {key: value / rounds for key, value in totals.items()},
    }
    if recorder is not None:
        metrics = layers.library_metrics(recorder.spans, len(records))
        metrics.update(layers.counter_metrics({}, totals, len(records)))
        metrics["trace.coverage_frac"] = layers.coverage(
            recorder.spans, started, ended)
        report["layers"] = metrics
    return report


if __name__ == "__main__":
    try:
        sys.exit(main())
    except GateError as error:
        print(f"determinism gate failed: {error}", file=sys.stderr)
        sys.exit(3)
