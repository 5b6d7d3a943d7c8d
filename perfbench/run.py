"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload explore|calibrate|serve \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  The program is plain Python under
``src/`` and needs no build.  With ``--trace 0`` the last line of
standard output is a JSON object whose ``metrics`` are the end-to-end
metrics of ``BENCHMARK.json``; the lines above it print every
end-to-end figure of the workload (including the ones that are not
gated, such as ``fail_frac`` and ``host.probe_ms``).  With ``--trace 1``
the metrics are the per-layer ones, from a traced run that wraps each
layer's public entry points, plus the tracing overhead against an
untraced run of the same length.

Exits non-zero without a result line when the program is missing or a
determinism gate fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent),
                str(Path(__file__).resolve().parent.parent / "src")]

from perfbench import layers  # noqa: E402
from perfbench.common import (  # noqa: E402
    ROOT,
    SCRATCH,
    SRC,
    declared,
    geometric_mean,
    kind_medians,
    median,
    normalised,
    pace,
    tail,
    typical_rate,
)

WORKLOADS = ("explore", "calibrate", "serve")
#: Set-ups measured per run; the median is reported.
SETUP_SAMPLES = 7
#: Hard ceiling on one program process (the whole run must end < 180 s).
CHILD_TIMEOUT = 150.0


def child_environment() -> dict:
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)]
        + ([environment["PYTHONPATH"]] if environment.get("PYTHONPATH")
           else [])
    )
    environment["PYTHONHASHSEED"] = "0"
    return environment


def run_child(workload: str, seed: int, seconds: float, trace: bool = False,
              setup_only: bool = False):
    """Start one program process; returns (set-up seconds, report)."""
    command = [sys.executable, str(ROOT / "perfbench" / "child.py"),
               workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    started = time.perf_counter()
    process = subprocess.Popen(command, cwd=ROOT, env=child_environment(),
                               stdout=subprocess.PIPE, text=True)
    try:
        ready = process.stdout.readline()
        setup = time.perf_counter() - started
        if ready.strip() != "READY":
            raise RuntimeError(f"{workload} program process failed to start")
        output, _ = process.communicate(timeout=CHILD_TIMEOUT)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if process.returncode != 0:
        raise RuntimeError(
            f"{workload} program process exited with {process.returncode}"
        )
    if setup_only:
        return setup, None
    return setup, json.loads(output.strip().splitlines()[-1])


def library_run(workload: str, seed: int, seconds: float) -> dict:
    """Untraced run: end-to-end figures of a library workload."""
    # Set-up is paced like the ops: one pass before each set-up and one
    # after the last.
    setups, setup_paces = [], [pace()]
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(run_child(workload, seed, seconds, setup_only=True)[0])
        setup_paces.append(pace())
    setup, report = run_child(workload, seed, seconds)
    setups.append(setup)
    setup_paces.append(pace())
    latencies_ms = [1000.0 * value for value in report["latencies"]]
    medians = kind_medians(report["kinds"],
                           normalised(latencies_ms, report["paces"]))
    figures = {
        "setup_s": median(normalised(setups, setup_paces)),
        # Every kind has the same share of the mix (whole rounds).
        "ops_per_s": typical_rate(medians, dict.fromkeys(medians, 1.0)),
        "op_p50_ms": geometric_mean(list(medians.values())),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    raw = kind_medians(report["kinds"], latencies_ms)
    extra = [(f"op_p50_ms.{kind}", medians[kind], "ms")
             for kind in sorted(medians)]
    extra += [
        ("raw_setup_s", median(setups), "s"),
        ("raw_ops_per_s", typical_rate(raw, dict.fromkeys(raw, 1.0)), "1/s"),
        ("raw_op_p50_ms", geometric_mean(list(raw.values())), "ms"),
        ("wall_ops_per_s", report["ops"] / report["wall"], "1/s"),
        ("all_ops_p50_ms", median(latencies_ms), "ms"),
        ("pace_ms", median(report["paces"]), "ms"),
    ]
    return {
        "figures": figures,
        "extra": extra,
        "latencies_ms": latencies_ms,
        "attempted": report["ops"],
        "failures": report["failures"],
        "probe_ms": report["probe_ms"],
        "counters": ("per round", report["counters"]),
    }


def library_trace(workload: str, seed: int, seconds: float) -> dict:
    """Traced run plus an untraced reference of the same length."""
    _, plain = run_child(workload, seed, seconds)
    _, traced = run_child(workload, seed, seconds, trace=True)
    metrics = layers.zero_metrics()
    metrics.update(traced["layers"])
    # Mean op latency, since only the untraced run paces between ops.
    metrics["trace.overhead_frac"] = (
        sum(traced["latencies"]) / traced["ops"]
        / (sum(plain["latencies"]) / plain["ops"]) - 1.0)
    metrics["host.probe_ms"] = median(traced["probe_ms"])
    failures = plain["failures"] + traced["failures"]
    metrics["fail_frac"] = len(failures) / (plain["ops"] + traced["ops"])
    return {
        "metrics": metrics,
        "attempted": plain["ops"] + traced["ops"],
        "failures": failures,
        "counters": ("per round", traced["counters"]),
    }


def describe(result: dict, trace: bool) -> None:
    """Print every figure of the run, one per line, above the result."""
    if trace:
        for name, unit in declared("per_layer"):
            print(f"{name:44s} {result['metrics'][name]:14.6g} {unit}")
    else:
        units = dict(declared("end_to_end"))
        for name, value in result["figures"].items():
            print(f"{name:44s} {value:14.6g} {units.get(name, '')}")
        for name, value, unit in result.get("extra", ()):
            print(f"{name:44s} {value:14.6g} {unit}")
        latencies = result.get("latencies_ms", ())
        cut = tail(latencies)
        if cut is not None:
            print(f"{'op_tail_ms':44s} {cut[0]:14.6g} ms "
                  f"(p{cut[1]:.2f}, {cut[2]} samples beyond)")
        else:
            print(f"{'op_tail_ms':44s} {'-':>14s} ms "
                  f"(fewer than 11 ops: no tail with 10 samples beyond)")
        failed, attempted = len(result["failures"]), result["attempted"]
        print(f"{'fail_frac':44s} {failed / attempted:14.6g} ratio "
              f"({failed} of {attempted})")
    if "probe_ms" in result:
        before, after = result["probe_ms"]
        print(f"{'host.probe_ms':44s} {median(result['probe_ms']):14.6g} ms "
              f"(before {before:.3f}, after {after:.3f})")
    if "counters" in result:
        # Timing-independent counters, for comparing runs of one seed.
        scope, counts = result["counters"]
        print(f"counters ({scope}) {json.dumps(counts, sort_keys=True)}")
    for failure in result["failures"][:20]:
        print(f"FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if arguments.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program is missing ({SRC / 'repro'} not found); "
              "run from a full checkout", file=sys.stderr)
        return 2

    trace = bool(arguments.trace)
    # Any library default cache directory stays inside the checkout and
    # starts empty for every run.
    SCRATCH.mkdir(exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="default-",
                                                     dir=SCRATCH)
    try:
        if arguments.workload == "serve":
            from perfbench import serve

            result = (serve.trace_run if trace else serve.timed_run)(
                arguments.seed, arguments.seconds)
        elif trace:
            result = library_trace(arguments.workload, arguments.seed,
                                   arguments.seconds)
        else:
            result = library_run(arguments.workload, arguments.seed,
                                 arguments.seconds)
    finally:
        shutil.rmtree(os.environ["REPRO_CACHE_DIR"], ignore_errors=True)

    describe(result, trace)
    values = result["metrics"] if trace else result["figures"]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared("per_layer" if trace
                                          else "end_to_end")}
    failed = len(result["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        sys.exit(1)
