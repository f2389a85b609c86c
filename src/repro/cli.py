"""``python -m repro run`` — one registered scenario on any substrate.

The substrate follows the config, the way
:func:`~repro.core.session.run_session` chooses: the scenario's own
``shards`` (or ``--shards K``) runs the sharded simulator, ``None`` runs the
scalar one, and ``--realnet`` runs real asyncio UDP sockets on localhost
(sharding off).  Every substrate takes the same outputs and gates::

    python -m repro run --scenario homogeneous --scale smoke --nodes 30 \\
        --seed 2009 --trace out/trace.jsonl --metrics-out out/metrics.json
    python -m repro run --scenario homogeneous --nodes 30 --shards 4 \\
        --mode process --parity
    python -m repro run --scenario homogeneous --nodes 10 --windows 3 \\
        --realnet --time-scale 0.25 --run-dir out/runs --trace \\
        --assert-delivery-ratio 0.9 --parity

``--run-dir`` writes ``delivery.jsonl`` and ``summary.json`` (plus the trace,
under a bare ``--trace``) into a fresh per-run directory.  ``--parity`` runs
the scalar oracle of the same config: a simulated run must match it in every
compared summary field, a real one within
:data:`~repro.realnet.compare.DELIVERY_RATIO_TOLERANCE` on the delivery ratio.
A trace records every event kind and every dispatch.
"""

from __future__ import annotations

import argparse
import datetime as _datetime
import json
import os
import sys
import time
from dataclasses import fields, replace
from typing import List, Optional, Tuple

from repro.core.session import SessionConfig, SessionResult, StreamingSession, session_horizon
from repro.experiments.scale import available_scales, scale_by_name
from repro.metrics.quality import OFFLINE_LAG
from repro.realnet.compare import DELIVERY_RATIO_TOLERANCE, compare_results
from repro.realnet.session import RealNetConfig, RealNetSession
from repro.scenarios.registry import available_scenarios, build_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.shard.runner import execute_sharded
from repro.sweep.summary import MetricsRequest, summarize
from repro.telemetry.config import TelemetryConfig


def _positive_int(value: str) -> int:
    """Argparse type for counts that must be >= 1 (clear message, no traceback)."""
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer")
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {parsed}")
    return parsed


def _positive_float(value: str) -> float:
    """Argparse type for strictly positive floats (time scale, delivery ratio)."""
    try:
        parsed = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a number")
    if parsed <= 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {parsed}")
    return parsed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run a registered scenario on the scalar simulator, the "
        "sharded simulator or real UDP sockets.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run one registered scenario")
    add = run.add_argument

    add("--scenario", required=True, choices=available_scenarios(),
        metavar="NAME", help=f"registered scenario ({', '.join(available_scenarios())})")
    add("--scale", choices=available_scales(),
        help="experiment scale sizing the run (default: the scenario's own size)")
    add("--nodes", type=_positive_int, help="override the node count")
    add("--seed", type=int, help="override the root seed")
    add("--windows", type=_positive_int, help="override the stream length in FEC windows")
    add("--extra-time", type=_positive_float,
        help="override the post-stream drain time (virtual seconds)")

    add("--shards", type=_positive_int,
        help="shard workers (default: the scenario's own; at most the node count)")
    add("--mode", choices=("thread", "process"), default="thread",
        help="sharded runs: every shard stepped in this thread (default) "
        "or one worker process per shard")
    add("--realnet", action="store_true",
        help="run over real asyncio UDP sockets on localhost (never sharded)")
    add("--time-scale", type=_positive_float,
        help="realnet runs: wall seconds per virtual second (default 1.0; "
        "below ~0.1 OS timer resolution distorts the physics)")
    add("--base-port", type=_positive_int,
        help="realnet runs: bind node i on base-port + i (default: kernel-assigned)")

    add("--run-dir", metavar="ROOT",
        help="write delivery.jsonl and summary.json into a fresh per-run directory")
    add("--trace", nargs="?", const="", metavar="PATH",
        help="record a repro.telemetry/1 trace to PATH (bare: trace.jsonl in the "
        "run directory); a sharded run writes one file per shard, PATH.shard<i>")
    add("--metrics-out", metavar="PATH",
        help="write the metrics snapshot as JSON (a list, one per shard, for 2+ shards)")
    add("--no-metrics", action="store_true", help="trace only, skip the metrics registry")

    add("--assert-delivery-ratio", type=_positive_float, metavar="RATIO",
        help="exit 1 unless the delivery ratio reaches RATIO")
    add("--parity", action="store_true",
        help="also run the scalar oracle: a simulated run must match it field by "
        f"field, a realnet run within {DELIVERY_RATIO_TOLERANCE} on the delivery ratio")
    add("--json", action="store_true",
        help="realnet --parity: print the comparison as JSON instead of a table")
    return parser


# ----------------------------------------------------------------------
# Run identity and artifacts: one shape whatever substrate ran
# ----------------------------------------------------------------------
def make_run_id(seed: int) -> str:
    """A sortable, human-readable id for one run: UTC timestamp plus the seed."""
    stamp = _datetime.datetime.now(_datetime.timezone.utc)
    return stamp.strftime("%Y%m%dT%H%M%SZ") + f"-s{seed}"


def prepare_run_dir(root: str, run_id: str) -> Tuple[str, str]:
    """Create a fresh artifact directory under ``root``; returns ``(run id, path)``.

    An id already taken under ``root`` (two runs of one seed in the same
    second) gets a ``-2``, ``-3``, ... suffix: no run overwrites another's
    artifacts.
    """
    os.makedirs(root, exist_ok=True)
    candidate, attempt = run_id, 1
    while True:
        path = os.path.join(root, candidate)
        try:
            os.mkdir(path)
            return candidate, path
        except FileExistsError:
            attempt += 1
            candidate = f"{run_id}-{attempt}"


def write_delivery_log(result: SessionResult, path: str) -> int:
    """Write a session's delivery log as one JSONL record per delivery.

    The schema — ``{"node": id, "packet": id, "t": virtual_seconds}`` in
    ``(t, node, packet)`` order — is substrate-independent: two runs of one
    scenario produce files that differ only in their values, never their
    shape.  Returns the number of records written.
    """
    records = [
        (at, node_id, packet_id)
        for node_id, packets in result.deliveries.raw().items()
        for packet_id, at in packets.items()
    ]
    records.sort()
    with open(path, "w", encoding="utf-8") as fh:
        for at, node_id, packet_id in records:
            fh.write(json.dumps({"node": node_id, "packet": packet_id, "t": at}) + "\n")
    return len(records)


def write_run_summary(result: SessionResult, path: str, run_id: str, backend: str) -> None:
    """Write the headline metrics of one run as a small JSON document."""
    summary = {
        "run_id": run_id,
        "backend": backend,
        "num_nodes": result.config.num_nodes,
        "seed": result.config.seed,
        "protocol": result.config.protocol,
        "delivery_ratio": result.delivery_ratio(),
        "viewing_pct_10s": result.viewing_percentage(lag=10.0),
        "events_processed": result.events_processed,
        "end_time": result.end_time,
        "failed_nodes": list(result.failed_nodes),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# The run command
# ----------------------------------------------------------------------
def _build_spec(args: argparse.Namespace) -> ScenarioSpec:
    """The scenario spec with every shape and substrate override applied."""
    overrides = {}
    if args.scale is not None:
        scale = scale_by_name(args.scale)
        overrides["num_nodes"] = scale.num_nodes
        overrides["stream"] = scale.stream_config()
    for flag, field_name in (("nodes", "num_nodes"), ("seed", "seed"),
                             ("extra_time", "extra_time"), ("shards", "shards")):
        if getattr(args, flag) is not None:
            overrides[field_name] = getattr(args, flag)
    if args.realnet:
        overrides["shards"] = None
    spec = build_scenario(args.scenario, **overrides)
    if args.windows is not None:
        spec = replace(spec, stream=replace(spec.stream, num_windows=args.windows))
    return spec


def _execute(config: SessionConfig, args: argparse.Namespace) -> Tuple[SessionResult, str]:
    """Run ``config`` on its substrate; returns the result and the substrate's name."""
    if args.realnet:
        realnet = RealNetConfig(time_scale=args.time_scale or 1.0, base_port=args.base_port)
        return RealNetSession(config, realnet).run(), "realnet-asyncio"
    if config.shards is None:
        return StreamingSession(config).run(), "scalar"
    run = execute_sharded(config, mode=args.mode)
    print(
        f"windows : partition={[len(group) for group in run.plan.groups]} "
        f"lookahead={run.plan.lookahead * 1000:.2f}ms windows={run.windows} "
        f"events/window={run.result.events_processed / run.windows:.1f}"
    )
    return run.result, f"sharded-{args.mode}"


def _report(label: str, result: SessionResult, wall: float) -> None:
    print(
        f"{label}: events={result.events_processed} "
        f"delivery={result.delivery_ratio() * 100:.2f}% "
        f"viewing(10s)={result.viewing_percentage(lag=10.0):.2f}% "
        f"viewing(inf)={result.viewing_percentage(lag=OFFLINE_LAG):.2f}% "
        f"wall={wall:.2f}s"
    )


def _write_telemetry(result: SessionResult, metrics_out: Optional[str]) -> None:
    """Report the trace(s) a run wrote and write its metrics snapshot(s)."""
    # A sharded run leaves one snapshot per shard.
    snapshots = result.telemetry
    if not isinstance(snapshots, tuple):
        snapshots = (snapshots,)
    for snapshot in snapshots:
        if snapshot.trace_path is not None:
            print(
                f"trace written to {snapshot.trace_path} "
                f"({snapshot.trace_events:,} events, "
                f"{len(snapshot.trace_events_by_kind)} kinds)"
            )
    if metrics_out is not None:
        metrics = [snapshot.metrics for snapshot in snapshots]
        os.makedirs(os.path.dirname(metrics_out) or ".", exist_ok=True)
        with open(metrics_out, "w", encoding="utf-8") as handle:
            json.dump(metrics if len(metrics) > 1 else metrics[0], handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"metrics written to {metrics_out}")


def _parity(
    config: SessionConfig, result: SessionResult, backend: str, wall: float,
    args: argparse.Namespace,
) -> int:
    """Run the scalar oracle of ``config`` and gate ``result`` against it."""
    started = time.perf_counter()
    oracle = StreamingSession(replace(config, telemetry=None)).run()
    oracle_wall = time.perf_counter() - started
    _report("scalar oracle", oracle, oracle_wall)

    if args.realnet:
        report = compare_results(config, oracle, result)
        if args.json:
            print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
        else:
            print(report.format_text())
        return 0 if report.passed() else 1

    request = MetricsRequest()
    ran = summarize(result, request, cell_id="run", seed=config.seed)
    expected = summarize(oracle, request, cell_id="run", seed=config.seed)
    mismatched = [
        f.name for f in fields(ran)
        if f.compare and getattr(ran, f.name) != getattr(expected, f.name)
    ]
    if mismatched:
        print(f"PARITY FAILED: fields differ: {', '.join(mismatched)}", file=sys.stderr)
        for name in mismatched:
            print(f"  {name}:", file=sys.stderr)
            print(f"    {backend}: {getattr(ran, name)!r}", file=sys.stderr)
            print(f"    scalar : {getattr(expected, name)!r}", file=sys.stderr)
        return 1
    # The speedup trend in CI logs: >1.0 means the run beat the scalar oracle.
    print(f"parity  : wall ratio run/scalar={wall / oracle_wall:.2f} "
          f"(speedup {oracle_wall / wall:.2f}x)")
    print(f"PARITY OK: {backend} run is identical to the scalar oracle")
    return 0


def _run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if not args.realnet and (args.time_scale is not None or args.base_port is not None):
        parser.error("--time-scale and --base-port apply only to --realnet runs")
    if args.realnet and args.shards is not None:
        parser.error("--realnet runs cannot be sharded; drop --shards")
    if args.trace == "" and args.run_dir is None:
        parser.error("a bare --trace writes into the run directory: give --run-dir or a PATH")

    spec = _build_spec(args)
    if spec.shards is not None and spec.shards > spec.num_nodes:
        parser.error(
            f"--shards {spec.shards} exceeds the node count "
            f"({spec.num_nodes} for scenario {spec.name!r}); every shard "
            f"needs at least one node to own"
        )
    run_id = run_dir = None
    trace_path = args.trace or None
    if args.run_dir is not None:
        run_id, run_dir = prepare_run_dir(args.run_dir, make_run_id(spec.seed))
        if args.trace == "":
            trace_path = os.path.join(run_dir, "trace.jsonl")
    if trace_path is not None or args.metrics_out is not None:
        spec = replace(spec, telemetry=TelemetryConfig(
            metrics=not args.no_metrics, trace_path=trace_path
        ))
    config = spec.session_config()
    print(
        f"scenario={spec.name} nodes={config.num_nodes} seed={config.seed} "
        f"protocol={config.protocol} shards={config.shards} "
        f"horizon={session_horizon(config):.3f}s(virtual)"
    )

    started = time.perf_counter()
    result, backend = _execute(config, args)
    wall = time.perf_counter() - started
    _report(backend, result, wall)
    if result.telemetry is not None:
        _write_telemetry(result, args.metrics_out)
    if run_dir is not None:
        records = write_delivery_log(result, os.path.join(run_dir, "delivery.jsonl"))
        write_run_summary(result, os.path.join(run_dir, "summary.json"), run_id, backend)
        print(f"artifacts: {run_dir} ({records} delivery records)")

    status = 0
    ratio = result.delivery_ratio()
    if args.assert_delivery_ratio is not None and ratio < args.assert_delivery_ratio:
        print(f"DELIVERY GATE FAILED: {ratio:.4f} < {args.assert_delivery_ratio}",
              file=sys.stderr)
        status = 1
    if args.parity:
        status = max(status, _parity(config, result, backend, wall, args))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _run(args, parser)
