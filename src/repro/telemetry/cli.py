"""``python -m repro.telemetry`` — record, summarize, export and diff traces.

Subcommands::

    record     run a registered scenario with telemetry armed and write a
               repro.telemetry/1 JSONL trace (plus a metrics snapshot)
    summarize  one-pass aggregate table of a trace
    export     convert a trace to Chrome/Perfetto trace_event JSON
    diff       first divergence between two traces (exit 1 on divergence)

The CI telemetry smoke job is exactly::

    python -m repro.telemetry record --scenario homogeneous --scale smoke
    python -m repro.telemetry summarize benchmarks/results/TRACE_homogeneous_smoke.jsonl
    python -m repro.telemetry export benchmarks/results/TRACE_homogeneous_smoke.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.telemetry.config import TelemetryConfig
from repro.telemetry.diff import diff_traces
from repro.telemetry.export import export_perfetto
from repro.telemetry.schema import EVENT_KINDS, TraceError, validate_trace
from repro.telemetry.summary import summarize_trace

DEFAULT_TRACE_DIR = "benchmarks/results"
"""Where ``record`` drops traces unless ``--out`` says otherwise."""


def _parse_kinds(raw: Optional[str]) -> Optional[tuple]:
    if raw is None:
        return None
    kinds = tuple(part.strip() for part in raw.split(",") if part.strip())
    return kinds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Structured tracing and metrics for streaming sessions.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    record = commands.add_parser(
        "record", help="run a registered scenario with telemetry armed"
    )
    record.add_argument(
        "--scenario",
        required=True,
        help="registered scenario name (see repro.scenarios)",
    )
    record.add_argument(
        "--scale",
        default=None,
        help="experiment scale sizing the run (smoke/reduced/paper/xlarge; "
        "default: the scenario's own size)",
    )
    record.add_argument("--seed", type=int, default=None, help="override the spec seed")
    record.add_argument(
        "--nodes", type=int, default=None, help="override the system size"
    )
    record.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help=f"trace path (default: {DEFAULT_TRACE_DIR}/TRACE_<scenario>_<scale>.jsonl)",
    )
    record.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="also write the metrics snapshot as JSON",
    )
    record.add_argument(
        "--no-metrics",
        action="store_true",
        help="trace only, skip the metrics registry",
    )
    record.add_argument(
        "--sample-every",
        type=int,
        default=1,
        metavar="N",
        help="keep every N-th dispatch event (default: 1 = all)",
    )
    record.add_argument(
        "--include-kinds",
        metavar="K1,K2",
        default=None,
        help=f"only record these event kinds (known: {','.join(EVENT_KINDS)})",
    )
    record.add_argument(
        "--exclude-kinds",
        metavar="K1,K2",
        default=None,
        help="record everything except these kinds",
    )
    record.add_argument(
        "--flush-every",
        type=int,
        default=1000,
        metavar="N",
        help="buffered trace lines between disk writes (default: 1000)",
    )

    summarize = commands.add_parser("summarize", help="aggregate table of one trace")
    summarize.add_argument("trace", help="trace file written by `record`")

    export = commands.add_parser("export", help="convert a trace for a viewer")
    export.add_argument("trace", help="trace file written by `record`")
    export.add_argument(
        "--format",
        choices=("perfetto",),
        default="perfetto",
        help="output format (default: perfetto trace_event JSON)",
    )
    export.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="output path (default: trace path with .perfetto.json suffix)",
    )

    diff = commands.add_parser(
        "diff", help="first divergence between two traces (exit 1 when they differ)"
    )
    diff.add_argument("left", help="first trace")
    diff.add_argument("right", help="second trace")
    return parser


def _cmd_record(args) -> int:
    # Imported here: the scenario/experiment layers pull in the whole
    # simulation stack, which summarize/export/diff runs don't need.
    from repro.scenarios import available_scenarios, build_scenario, run_spec

    if args.scenario not in available_scenarios():
        print(
            f"error: unknown scenario {args.scenario!r}; "
            f"registered: {', '.join(sorted(available_scenarios()))}",
            file=sys.stderr,
        )
        return 2
    overrides = {}
    scale_name = "spec"
    if args.scale is not None:
        from repro.experiments.scale import scale_by_name

        scale = scale_by_name(args.scale)
        scale_name = scale.name
        overrides["num_nodes"] = scale.num_nodes
        overrides["stream"] = scale.stream_config()
    if args.nodes is not None:
        overrides["num_nodes"] = args.nodes
    if args.seed is not None:
        overrides["seed"] = args.seed

    out = args.out
    if out is None:
        out = str(Path(DEFAULT_TRACE_DIR) / f"TRACE_{args.scenario}_{scale_name}.jsonl")
    overrides["telemetry"] = TelemetryConfig(
        metrics=not args.no_metrics,
        trace_path=out,
        sample_every=args.sample_every,
        include_kinds=_parse_kinds(args.include_kinds),
        exclude_kinds=_parse_kinds(args.exclude_kinds) or (),
        flush_every=args.flush_every,
    )
    spec = build_scenario(args.scenario, **overrides)
    print(f"recording {spec.describe()}")
    result = run_spec(spec)
    snapshot = result.telemetry
    assert snapshot is not None
    print(
        f"trace written to {snapshot.trace_path} "
        f"({snapshot.trace_events:,} events, "
        f"{len(snapshot.trace_events_by_kind)} kinds)"
    )
    if snapshot.metrics:
        print(f"metrics captured: {len(snapshot.metrics)}")
    if args.metrics_out is not None:
        metrics_path = Path(args.metrics_out)
        metrics_path.parent.mkdir(parents=True, exist_ok=True)
        with open(metrics_path, "w", encoding="utf-8") as handle:
            json.dump(snapshot.metrics, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"metrics written to {metrics_path}")
    return 0


def _cmd_summarize(args) -> int:
    header, count = validate_trace(args.trace)
    summary = summarize_trace(args.trace)
    print(summary.table())
    print(f"\nvalidated: {count:,} events, schema {header.schema}")
    return 0


def _cmd_export(args) -> int:
    out_path = export_perfetto(args.trace, args.out)
    print(f"perfetto trace written to {out_path}")
    print("open it at https://ui.perfetto.dev or chrome://tracing")
    return 0


def _cmd_diff(args) -> int:
    outcome = diff_traces(args.left, args.right)
    print(outcome.describe())
    return 0 if outcome.identical else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "record": _cmd_record,
        "summarize": _cmd_summarize,
        "export": _cmd_export,
        "diff": _cmd_diff,
    }
    try:
        return handlers[args.command](args)
    except (TraceError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
