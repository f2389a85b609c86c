"""``python -m repro.bench`` — run, compare, record and list benchmarks.

Subcommands::

    run      execute registered benchmarks, optionally writing the report
             (``--filter`` selects by substring of name or tag, accepts
             comma-separated lists and exact ``tag:<name>`` patterns;
             ``--profile`` additionally writes one cProfile pstats file
             per benchmark under ``benchmarks/results/`` and prints the
             dump path plus a hot-path summary sorted by ``--profile-sort``)
    compare  gate a report against the committed baselines (exit 1 on a
             regression verdict; ``REPRO_BENCH_NO_GATE=1`` downgrades the
             failure to a warning for emergencies)
    record   freeze a report's records as the new baselines
    list     show every registered benchmark

The CI ``bench-smoke`` job is exactly::

    python -m repro.bench run --scale smoke --json benchmarks/results/BENCH_smoke.json
    python -m repro.bench compare benchmarks/results/BENCH_smoke.json
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from repro.bench.baseline import BaselineStore, compare_report
from repro.bench.report import BenchReport, ReportError
from repro.bench.runner import (
    DEFAULT_PROFILE_DIR,
    PROFILE_SORTS,
    BenchmarkSelectionError,
    run_selected,
)
from repro.bench.spec import default_registry

NO_GATE_ENV = "REPRO_BENCH_NO_GATE"


def _parse_options(pairs: Sequence[str]) -> dict:
    options = {}
    for pair in pairs:
        key, separator, value = pair.partition("=")
        if not separator or not key:
            raise SystemExit(f"--option expects key=value, got {pair!r}")
        options[key] = value
    return options


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Unified benchmark runner with an in-repo baseline store.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="execute registered benchmarks")
    run.add_argument(
        "--filter",
        action="append",
        default=[],
        metavar="PATTERN",
        help=(
            "benchmark selector: substring of a name or tag, or tag:<name> for "
            "an exact tag match; comma-separated lists and repeats both union "
            "(default: all)"
        ),
    )
    run.add_argument("--scale", default="smoke", help="experiment scale (default: smoke)")
    run.add_argument("--json", metavar="PATH", help="write the combined report to PATH")
    run.add_argument(
        "--option",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="benchmark-specific override (e.g. nodes=40, windows=4); repeatable",
    )
    run.add_argument(
        "--record-baseline",
        action="store_true",
        help="freeze this run's records as the new baselines",
    )
    run.add_argument(
        "--baseline-dir", metavar="DIR", help="baseline root (default: benchmarks/baselines)"
    )
    run.add_argument("--quiet", action="store_true", help="suppress per-benchmark progress")
    run.add_argument(
        "--profile",
        action="store_true",
        help=(
            "run each benchmark under cProfile and write "
            f"{DEFAULT_PROFILE_DIR}/PROFILE_<name>.pstats (timed metrics are "
            "then not comparable to unprofiled baselines)"
        ),
    )
    run.add_argument(
        "--profile-dir",
        metavar="DIR",
        default=DEFAULT_PROFILE_DIR,
        help=f"where --profile writes pstats files (default: {DEFAULT_PROFILE_DIR})",
    )
    run.add_argument(
        "--profile-sort",
        choices=PROFILE_SORTS,
        default="cumulative",
        help="sort key of the inline hot-path summary --profile prints "
        "(default: cumulative)",
    )

    compare = commands.add_parser("compare", help="gate a report against the baselines")
    compare.add_argument("report", help="report file produced by `run --json`")
    compare.add_argument(
        "--baseline-dir", metavar="DIR", help="baseline root (default: benchmarks/baselines)"
    )

    record = commands.add_parser("record", help="freeze a report as the new baselines")
    record.add_argument("report", help="report file produced by `run --json`")
    record.add_argument(
        "--baseline-dir", metavar="DIR", help="baseline root (default: benchmarks/baselines)"
    )

    listing = commands.add_parser("list", help="show registered benchmarks")
    listing.add_argument(
        "--filter",
        action="append",
        default=[],
        metavar="PATTERN",
        help="same selector syntax as `run --filter` (substrings, commas, tag:<name>)",
    )
    return parser


def _cmd_run(args) -> int:
    registry = default_registry()
    report = run_selected(
        registry,
        patterns=args.filter,
        scale_name=args.scale,
        options=_parse_options(args.option),
        verbose=not args.quiet,
        profile_dir=args.profile_dir if args.profile else None,
        profile_sort=args.profile_sort,
    )
    if args.json:
        path = report.write(args.json)
        print(f"report written to {path}")
    if args.record_baseline:
        store = BaselineStore(args.baseline_dir)
        written = store.record(report)
        print(f"recorded {len(written)} baseline(s) under {store.root}")
    return 0


def _cmd_compare(args) -> int:
    registry = default_registry()
    report = BenchReport.load(args.report)
    store = BaselineStore(args.baseline_dir)
    outcome = compare_report(report, registry, store)
    print(outcome.table())
    if not outcome.has_regressions:
        gated = sum(1 for v in outcome.verdicts if v.status in ("ok", "improved"))
        print(f"\nverdict: no regressions ({gated} metric(s) within band)")
        return 0
    names = ", ".join(f"{v.benchmark}:{v.metric}" for v in outcome.regressions)
    if os.environ.get(NO_GATE_ENV):
        print(f"\nverdict: REGRESSION in {names} — ignored ({NO_GATE_ENV} is set)")
        return 0
    print(f"\nverdict: REGRESSION in {names}")
    return 1


def _cmd_record(args) -> int:
    report = BenchReport.load(args.report)
    store = BaselineStore(args.baseline_dir)
    written = store.record(report)
    for path in written:
        print(f"recorded {path}")
    return 0


def _cmd_list(args) -> int:
    registry = default_registry()
    selected = registry.select(args.filter)
    if not selected:
        print("no benchmark matches the filter")
        return 1
    width = max(len(benchmark.name) for benchmark in selected)
    for benchmark in selected:
        tags = ",".join(benchmark.tags)
        print(
            f"{benchmark.name:<{width}}  [{tags}]  "
            f"{len(benchmark.metrics)} metrics — {benchmark.description}"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "record": _cmd_record,
        "list": _cmd_list,
    }
    # Only *usage* errors are turned into exit code 2: a bad report file or
    # a filter matching nothing.  Failures inside a running benchmark (an
    # assertion, a KeyError in a generator) propagate with their traceback —
    # those are code bugs, not CLI mistakes.
    try:
        return handlers[args.command](args)
    except (ReportError, BenchmarkSelectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
