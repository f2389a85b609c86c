"""Command line for sharded sessions: run a scenario across K shards.

The ``--parity`` flag is the CI smoke check: it runs the *same config* both
ways — scalar :class:`~repro.core.session.StreamingSession` oracle and the
sharded runner — summarizes both, and exits non-zero on any field mismatch::

    python -m repro.shard run --scenario homogeneous --nodes 30 \
        --shards 2 --parity

Without ``--parity`` it just runs sharded and prints the headline numbers,
next to what decides the runner's speed: the partition sizes, the lookahead
the placement bought, and how many barrier windows the run took.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields
from typing import List, Optional

from repro.core.session import StreamingSession
from repro.scenarios.registry import available_scenarios, build_scenario
from repro.sweep.summary import MetricsRequest, PointSummary, summarize

from repro.shard.runner import execute_sharded


def _positive_int(value: str) -> int:
    """Argparse type for counts that must be >= 1 (clear message, no traceback)."""
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer")
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {parsed}")
    return parsed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.shard",
        description="Run a registered scenario partitioned across shard workers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one scenario sharded")
    run.add_argument(
        "--scenario",
        required=True,
        help=f"registered scenario name (one of: {', '.join(available_scenarios())})",
    )
    run.add_argument(
        "--shards",
        type=_positive_int,
        required=True,
        help="number of shard workers (>= 1, at most the node count)",
    )
    run.add_argument(
        "--nodes", type=_positive_int, default=None, help="override the node count"
    )
    run.add_argument("--seed", type=int, default=None, help="override the root seed")
    run.add_argument(
        "--mode",
        choices=("thread", "process"),
        default="thread",
        help="thread: every shard stepped in this thread (default); "
        "process: one worker process per shard",
    )
    run.add_argument(
        "--parity",
        action="store_true",
        help="also run the scalar oracle, fail on any summary mismatch, "
        "and print the sharded/scalar wall-clock ratio",
    )
    return parser


def _summary_fields(summary: PointSummary) -> List[str]:
    return [f.name for f in fields(summary) if f.compare]


def _run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    overrides = {}
    if args.nodes is not None:
        overrides["num_nodes"] = args.nodes
    if args.seed is not None:
        overrides["seed"] = args.seed
    spec = build_scenario(args.scenario, shards=args.shards, **overrides)
    config = spec.session_config()
    if args.shards > config.num_nodes:
        parser.error(
            f"--shards {args.shards} exceeds the node count "
            f"({config.num_nodes} for scenario {spec.name!r}); every shard "
            f"needs at least one node to own"
        )

    print(
        f"scenario={spec.name} nodes={config.num_nodes} shards={args.shards} "
        f"mode={args.mode}"
    )

    started = time.perf_counter()
    run = execute_sharded(config, mode=args.mode)
    sharded_wall = time.perf_counter() - started
    request = MetricsRequest()
    sharded = summarize(run.result, request, cell_id=spec.name, seed=config.seed)
    print(
        f"windows : partition={[len(group) for group in run.plan.groups]} "
        f"lookahead={run.plan.lookahead * 1000:.2f}ms windows={run.windows} "
        f"events/window={sharded.events_processed / run.windows:.1f}"
    )
    print(
        f"sharded : events={sharded.events_processed} "
        f"delivery={sharded.delivery_percentage:.2f}% "
        f"viewing(inf)={sharded.viewing_percentage(float('inf')):.2f}% "
        f"wall={sharded_wall:.2f}s"
    )

    if not args.parity:
        return 0

    started = time.perf_counter()
    oracle_result = StreamingSession(config).run()
    oracle_wall = time.perf_counter() - started
    oracle = summarize(oracle_result, request, cell_id=spec.name, seed=config.seed)
    print(
        f"scalar  : events={oracle.events_processed} "
        f"delivery={oracle.delivery_percentage:.2f}% "
        f"viewing(inf)={oracle.viewing_percentage(float('inf')):.2f}% "
        f"wall={oracle_wall:.2f}s"
    )

    mismatched = [
        name
        for name in _summary_fields(sharded)
        if getattr(sharded, name) != getattr(oracle, name)
    ]
    if mismatched:
        print(f"PARITY FAILED: fields differ: {', '.join(mismatched)}", file=sys.stderr)
        for name in mismatched:
            print(f"  {name}:", file=sys.stderr)
            print(f"    sharded: {getattr(sharded, name)!r}", file=sys.stderr)
            print(f"    scalar : {getattr(oracle, name)!r}", file=sys.stderr)
        return 1
    # The speedup trend in CI logs: >1.0 means sharding beat the scalar run.
    print(
        f"parity  : wall ratio sharded/scalar={sharded_wall / oracle_wall:.2f} "
        f"(speedup {oracle_wall / sharded_wall:.2f}x)"
    )
    print(f"PARITY OK: {args.shards}-shard run is identical to the scalar oracle")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro.shard``."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _run(args, parser)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
