"""``python -m repro.telemetry`` — summarize, export and diff traces.

Subcommands::

    summarize  one-pass aggregate table of a trace
    export     convert a trace to Chrome/Perfetto trace_event JSON
    diff       first divergence between two traces (exit 1 on divergence)

A trace is recorded by a run (:mod:`repro.cli`); the CI telemetry smoke job
is exactly::

    python -m repro run --scenario homogeneous --scale smoke --nodes 30 \\
        --seed 2009 --trace benchmarks/results/TRACE_ci_smoke.jsonl \\
        --metrics-out benchmarks/results/TRACE_ci_smoke_metrics.json
    python -m repro.telemetry summarize benchmarks/results/TRACE_ci_smoke.jsonl
    python -m repro.telemetry export benchmarks/results/TRACE_ci_smoke.jsonl
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.telemetry.diff import diff_traces
from repro.telemetry.export import export_perfetto
from repro.telemetry.schema import TraceError, validate_trace
from repro.telemetry.summary import summarize_trace


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Structured tracing and metrics for streaming sessions.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    summarize = commands.add_parser("summarize", help="aggregate table of one trace")
    summarize.add_argument("trace", help="a repro.telemetry/1 trace")

    export = commands.add_parser("export", help="convert a trace for a viewer")
    export.add_argument("trace", help="a repro.telemetry/1 trace")
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
