"""Command line for real-network sessions: ``python -m repro.realnet``.

Two subcommands:

``run``
    Execute one registered scenario over real asyncio UDP sockets on
    localhost and (optionally) write the run's artifacts — delivery log,
    summary JSON, telemetry trace — into a per-run directory.  The
    ``--assert-delivery-ratio`` gate makes this directly usable as a CI
    smoke job::

        python -m repro.realnet run --scenario homogeneous --nodes 10 \\
            --time-scale 0.25 --run-dir out/realnet --trace \\
            --assert-delivery-ratio 0.9

``compare``
    Run the same scenario on the simulator *and* the real backend, print
    the per-metric delta table, and exit non-zero when the delivery-ratio
    delta exceeds the tolerance (see :mod:`repro.realnet.compare`)::

        python -m repro.realnet compare --scenario homogeneous --nodes 12

Scenario specs are resolved through the same registry as every other CLI;
``shards`` is forced to ``None`` because the real backend has no virtual
event queue to partition.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from typing import List, Optional

from repro.scenarios.registry import available_scenarios, build_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.telemetry.config import TelemetryConfig

from repro.realnet.compare import DELIVERY_RATIO_TOLERANCE, compare_backends
from repro.realnet.session import (
    RealNetConfig,
    RealNetSession,
    make_run_id,
    prepare_run_dir,
    write_delivery_log,
    write_run_summary,
)


def _positive_int(value: str) -> int:
    """Argparse type for counts that must be >= 1."""
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer")
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {parsed}")
    return parsed


def _positive_float(value: str) -> float:
    """Argparse type for strictly positive floats (time scale, tolerance)."""
    try:
        parsed = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a number")
    if parsed <= 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {parsed}")
    return parsed


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    """The scenario-shape flags shared by ``run`` and ``compare``."""
    parser.add_argument(
        "--scenario",
        default="homogeneous",
        help=(
            "registered scenario name (default: homogeneous; one of: "
            f"{', '.join(available_scenarios())})"
        ),
    )
    parser.add_argument(
        "--nodes", type=_positive_int, default=None, help="override the node count"
    )
    parser.add_argument("--seed", type=int, default=None, help="override the root seed")
    parser.add_argument(
        "--windows",
        type=_positive_int,
        default=None,
        help="override the stream length in FEC windows",
    )
    parser.add_argument(
        "--extra-time",
        type=_positive_float,
        default=None,
        help="override the post-stream drain time (virtual seconds)",
    )
    parser.add_argument(
        "--time-scale",
        type=_positive_float,
        default=1.0,
        help=(
            "wall seconds per virtual second (default 1.0 = real time; "
            "0.25 runs 4x fast — below ~0.1 OS timer resolution distorts "
            "the physics)"
        ),
    )
    parser.add_argument(
        "--base-port",
        type=_positive_int,
        default=None,
        help="bind node i on base-port + i (default: kernel-assigned ports)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.realnet",
        description="Run a registered scenario over real asyncio UDP sockets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario on the real backend")
    _add_scenario_arguments(run)
    run.add_argument(
        "--run-dir",
        default=None,
        help="artifact root; a per-run subdirectory is created inside it",
    )
    run.add_argument(
        "--trace",
        action="store_true",
        help="record a repro.telemetry/1 trace (requires --run-dir)",
    )
    run.add_argument(
        "--assert-delivery-ratio",
        type=_positive_float,
        default=None,
        metavar="RATIO",
        help="exit 1 unless the delivery ratio reaches RATIO (CI gate)",
    )

    compare = sub.add_parser(
        "compare", help="run sim and real back to back, diff the metrics"
    )
    _add_scenario_arguments(compare)
    compare.add_argument(
        "--tolerance",
        type=_positive_float,
        default=DELIVERY_RATIO_TOLERANCE,
        help=(
            "gate on |sim - real| delivery ratio "
            f"(default {DELIVERY_RATIO_TOLERANCE})"
        ),
    )
    compare.add_argument(
        "--json", action="store_true", help="emit the report as JSON instead of a table"
    )
    return parser


def _build_spec(args: argparse.Namespace) -> ScenarioSpec:
    """The scenario spec with CLI overrides applied and sharding disabled."""
    overrides = {"shards": None}
    if args.nodes is not None:
        overrides["num_nodes"] = args.nodes
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.extra_time is not None:
        overrides["extra_time"] = args.extra_time
    spec = build_scenario(args.scenario, **overrides)
    if args.windows is not None:
        spec = replace(spec, stream=replace(spec.stream, num_windows=args.windows))
    return spec


def _realnet_config(args: argparse.Namespace) -> RealNetConfig:
    return RealNetConfig(time_scale=args.time_scale, base_port=args.base_port)


def _run(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    if args.trace and args.run_dir is None:
        raise SystemExit("--trace requires --run-dir (the trace is a run artifact)")

    run_dir: Optional[str] = None
    if args.run_dir is not None:
        run_id = make_run_id(spec.seed)
        run_dir = prepare_run_dir(args.run_dir, run_id)
        if args.trace:
            trace_path = os.path.join(run_dir, "trace.jsonl")
            telemetry = spec.telemetry if spec.telemetry is not None else TelemetryConfig()
            spec = replace(spec, telemetry=replace(telemetry, trace_path=trace_path))

    config = spec.session_config()
    print(
        f"scenario={spec.name} nodes={config.num_nodes} seed={config.seed} "
        f"protocol={config.protocol} time_scale={args.time_scale} "
        f"horizon={config.stream.duration + config.extra_time:.1f}s(virtual)"
    )

    started = time.perf_counter()
    result = RealNetSession(config, _realnet_config(args)).run()
    wall = time.perf_counter() - started

    ratio = result.delivery_ratio()
    print(
        f"delivery={ratio * 100:.2f}% "
        f"viewing(10s)={result.viewing_percentage(lag=10.0):.2f}% "
        f"events={result.events_processed} wall={wall:.2f}s"
    )

    if run_dir is not None:
        records = write_delivery_log(result, os.path.join(run_dir, "delivery.jsonl"))
        write_run_summary(result, os.path.join(run_dir, "summary.json"), run_id)
        print(f"artifacts: {run_dir} ({records} delivery records)")

    if args.assert_delivery_ratio is not None and ratio < args.assert_delivery_ratio:
        print(
            f"DELIVERY GATE FAILED: {ratio:.4f} < {args.assert_delivery_ratio}",
            file=sys.stderr,
        )
        return 1
    return 0


def _compare(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    config = spec.session_config()
    report = compare_backends(
        config, realnet=_realnet_config(args), tolerance=args.tolerance
    )
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    else:
        print(report.format_text())
    return 0 if report.passed() else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro.realnet``."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _run(args)
    if args.command == "compare":
        return _compare(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
