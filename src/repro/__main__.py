"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiments [IDS...]``
    Run the paper's experiments (default: all of E1..E7).
``describe``
    Print the structural model of a cache configuration.
``evaluate``
    Evaluate a cache at one (Vth, Tox) point.
``optimize``
    Run the Section 4 optimiser for a scheme and delay target.
``fit``
    Characterise a cache, fit the Section 3 forms, optionally save JSON.
``serve``
    Start the batched sweep/calibration HTTP daemon (docs/SERVICE.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import units
from repro.cache.cache_model import CacheModel
from repro.cache.config import CacheConfig, kib_to_bytes
from repro.cache.assignment import knobs
from repro.errors import ReproError
from repro.optimize.schemes import SCHEME_CODES
from repro.optimize.single_cache import minimize_leakage
from repro.technology.nodes import NODES, SCALING_STYLES, node_technology

def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--size-kb", type=float, default=16.0,
                        help="capacity in KiB (default 16)")
    parser.add_argument("--block-bytes", type=int, default=32,
                        help="line size (default 32)")
    parser.add_argument("--associativity", type=int, default=2,
                        help="ways (default 2)")
    parser.add_argument("--node", type=int, default=65,
                        choices=NODES, metavar="NM",
                        help="technology node in nm (default 65; one of "
                             f"{', '.join(str(n) for n in NODES)})")
    parser.add_argument("--scaling-style", default="itrs",
                        choices=SCALING_STYLES,
                        help="node scaling style (default itrs)")


def _build_model(arguments) -> CacheModel:
    config = CacheConfig(
        size_bytes=kib_to_bytes(arguments.size_kb),
        block_bytes=arguments.block_bytes,
        associativity=arguments.associativity,
        name=f"cache-{arguments.size_kb:g}K",
    )
    technology = node_technology(arguments.node, arguments.scaling_style)
    return CacheModel(config, technology=technology)


def _cmd_experiments(arguments) -> int:
    from repro.experiments.runner import main as runner_main

    argv = list(arguments.ids)
    if arguments.jobs != 1:
        argv += ["--jobs", str(arguments.jobs)]
    return runner_main(argv)


def _cmd_describe(arguments) -> int:
    model = _build_model(arguments)
    technology = model.technology
    print(model.describe())
    print(f"cell-array area at nominal Tox: {model.area() * 1e6:.3f} mm^2")
    evaluation = model.uniform(
        knobs(technology.vth_ref, units.to_angstrom(technology.tox_ref))
    )
    print(f"transistors: {evaluation.transistor_count}")
    return 0


def _resolve_point(arguments, technology):
    """The (Vth, Tox) to evaluate: explicit flags, else the node nominal.

    The historical defaults (0.35 V, 12 Å) are kept at 65 nm; a scaled
    node's box may not contain them, so there the node's own nominal
    point is the default instead.
    """
    vth = arguments.vth
    tox_a = arguments.tox
    if vth is None:
        vth = 0.35 if arguments.node == 65 else technology.vth_ref
    if tox_a is None:
        tox_a = (
            12.0 if arguments.node == 65
            else units.to_angstrom(technology.tox_ref)
        )
    return knobs(vth, tox_a).validate(technology=technology)


def _cmd_evaluate(arguments) -> int:
    model = _build_model(arguments)
    point = _resolve_point(arguments, model.technology)
    evaluation = model.uniform(point)
    print(model.config.describe())
    print(
        f"assignment: uniform ({point.vth:g} V, "
        f"{point.tox_angstrom:g} A) at {arguments.node} nm "
        f"({arguments.scaling_style})"
    )
    print(f"access time:    {units.to_ps(evaluation.access_time):9.1f} ps")
    print(f"leakage power:  {units.to_mw(evaluation.leakage_power):9.4f} mW")
    print(
        "read energy:    "
        f"{units.to_pj(evaluation.dynamic_read_energy):9.2f} pJ"
    )
    return 0


def _cmd_optimize(arguments) -> int:
    model = _build_model(arguments)
    scheme = SCHEME_CODES[arguments.scheme]
    result = minimize_leakage(
        model, scheme, units.ps(arguments.target_ps)
    )
    print(
        f"{scheme.paper_name} optimum under "
        f"T <= {arguments.target_ps:.0f} ps:"
    )
    print(f"  leakage:     {units.to_mw(result.leakage_power):.4f} mW")
    print(f"  access time: {units.to_ps(result.access_time):.1f} ps")
    print(result.assignment.describe())
    return 0


def _cmd_fit(arguments) -> int:
    from repro.models.analytical import fit_cache_model
    from repro.models.io import save_fitted_model

    model = _build_model(arguments)
    fitted = fit_cache_model(model)
    print(
        f"fitted {len(fitted.components)} components; worst R^2 = "
        f"{fitted.worst_fit_r_squared():.4f}"
    )
    if arguments.output:
        save_fitted_model(fitted, arguments.output)
        print(f"saved to {arguments.output}")
    return 0


def _cmd_serve(arguments) -> int:
    from repro.service import ServiceConfig, run

    warm_profiles = tuple(
        name.strip()
        for name in (arguments.warm_profiles or "").split(",")
        if name.strip()
    )
    config = ServiceConfig(
        host=arguments.host,
        port=arguments.port,
        batch_window_seconds=arguments.batch_window_ms / 1000.0,
        job_workers=arguments.job_workers,
        job_queue=arguments.job_queue,
        job_timeout_seconds=arguments.job_timeout,
        cache_dir=arguments.cache_dir,
        quiet=not arguments.verbose,
        warm_profiles=warm_profiles,
        campaign_max_units=arguments.campaign_max_units,
        campaign_fanout=arguments.campaign_fanout,
    )
    if arguments.workers > 1:
        from repro.service.supervisor import run_supervised

        return run_supervised(
            config, arguments.workers, port_file=arguments.port_file
        )
    return run(config, port_file=arguments.port_file)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Power-Performance Trade-Offs in "
            "Nanometer-Scale Multi-Level Caches Considering Total "
            "Leakage' (DATE 2005)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    experiments = commands.add_parser(
        "experiments", help="run the paper's experiments"
    )
    experiments.add_argument("ids", nargs="*", help="experiment ids")
    experiments.add_argument("--jobs", type=int, default=1, metavar="N",
                             help="worker processes (default 1)")
    experiments.set_defaults(handler=_cmd_experiments)

    describe = commands.add_parser("describe", help="print cache structure")
    _add_cache_arguments(describe)
    describe.set_defaults(handler=_cmd_describe)

    evaluate = commands.add_parser("evaluate", help="evaluate one knob point")
    _add_cache_arguments(evaluate)
    evaluate.add_argument("--vth", type=float, default=None,
                          help="threshold voltage in V (default 0.35 at "
                               "65 nm, the node's nominal elsewhere)")
    evaluate.add_argument("--tox", type=float, default=None,
                          help="oxide thickness in A (default 12 at "
                               "65 nm, the node's nominal elsewhere)")
    evaluate.set_defaults(handler=_cmd_evaluate)

    optimize = commands.add_parser("optimize", help="Section 4 optimiser")
    _add_cache_arguments(optimize)
    optimize.add_argument("--scheme", choices=sorted(SCHEME_CODES),
                          default="2", help="assignment scheme (1/2/3)")
    optimize.add_argument("--target-ps", type=float, default=1200.0,
                          help="access-time constraint in ps")
    optimize.set_defaults(handler=_cmd_optimize)

    fit = commands.add_parser("fit", help="fit the Section 3 forms")
    _add_cache_arguments(fit)
    fit.add_argument("--output", help="write the fit to this JSON path")
    fit.set_defaults(handler=_cmd_fit)

    serve = commands.add_parser(
        "serve", help="start the HTTP service daemon"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8023,
                       help="port to listen on; 0 picks an ephemeral port")
    serve.add_argument("--port-file", default=None, metavar="PATH",
                       help="write the bound port to this file on startup")
    serve.add_argument("--workers", type=int, default=1, metavar="N",
                       help="worker processes behind one shared listen "
                            "socket; >1 starts the fork supervisor with "
                            "crash restart (default 1: single process)")
    serve.add_argument("--batch-window-ms", type=float, default=5.0,
                       help="sweep coalescing window in ms (default 5)")
    serve.add_argument("--job-workers", type=int, default=2,
                       help="calibration worker processes (default 2)")
    serve.add_argument("--job-queue", type=int, default=16,
                       help="max queued calibration jobs (default 16)")
    serve.add_argument("--job-timeout", type=float, default=600.0,
                       help="per-job timeout in seconds (default 600)")
    serve.add_argument("--cache-dir", default=None,
                       help="calibration disk-cache directory")
    serve.add_argument("--warm-profiles", default=None, metavar="NAMES",
                       help="comma-separated workloads whose profile "
                            "surfaces are computed at startup "
                            "(e.g. spec2000,tpcc)")
    serve.add_argument("--campaign-max-units", type=int, default=2048,
                       help="expansion budget for one campaign "
                            "(default 2048 units)")
    serve.add_argument("--campaign-fanout", type=int, default=4,
                       help="concurrent heavy campaign units in flight "
                            "(default 4)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request")
    serve.set_defaults(handler=_cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        return arguments.handler(arguments)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
