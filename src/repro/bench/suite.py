"""The registered benchmark suite.

Importing this module populates :func:`repro.bench.spec.default_registry`
with the fourteen benchmarks the repo tracks:

* ``engine-throughput`` — event count, delivery and frames per event of a
  congestion-free session (the work counter of the scalar hot path);
* ``observer-overhead`` — the validation hook layer's price: a no-op
  observer and the armed invariants against an unobserved session;
* ``telemetry-overhead`` — the telemetry layer's price: disarmed (pinned
  near 1x), metrics and traced sessions against a disabled one;
* ``figure1`` … ``figure8`` — regeneration of each paper figure, with the
  paper-shape checks of :mod:`repro.bench.figure_checks` asserted inline;
* ``large-session`` — the fast-path flagship: the metrics stage timed
  in-process against its pinned reference implementation;
* ``sharded-session`` — the conservative time-window runner vs the scalar
  oracle: identity-gated event counts, delivery checksums and windows;
* ``wire`` — the compact cross-shard wire format vs pickled batches on
  captured real traffic: bytes per datagram, gated to stay >= 2x smaller.

Every metric is a deterministic count (compared exactly) or a ``ratio`` of
two timings taken in this process (see :mod:`repro.bench.spec`).  A
benchmark that times something runs each side :data:`TIMING_ROUNDS` times
over the same data and keeps each side's best; wall clock itself is owned by
``benchmarks/e2e/``.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Dict, Sequence, Tuple

from repro.bench.baseline import default_baseline_root
from repro.bench.figure_checks import FIGURE_CHECKS, FigureCheckSkipped
from repro.bench.spec import Benchmark, BenchContext, Metric, default_registry
from repro.core.config import GossipConfig
from repro.core.session import SessionConfig, SessionResult, StreamingSession
from repro.experiments.figures import ALL_FIGURES, FigureResult
from repro.network.transport import NetworkConfig
from repro.streaming.schedule import StreamConfig

#: Timings per side of every ``ratio`` metric; each side keeps its best.
TIMING_ROUNDS = 5


def best_seconds(work: Callable[[], object]) -> Tuple[float, object]:
    """The fastest of :data:`TIMING_ROUNDS` timings of ``work()``, and its output."""
    best = float("inf")
    for _ in range(TIMING_ROUNDS):
        started = time.perf_counter()
        output = work()
        best = min(best, time.perf_counter() - started)
    return best, output


def slowdowns(
    modes: Sequence[str], run_mode: Callable[[str], tuple], ctx: BenchContext
) -> Tuple[Dict[str, float], Dict[str, SessionResult]]:
    """How many times slower each mode runs than ``modes[0]``, the plain session.

    ``run_mode(mode) -> (result, seconds)`` runs one session.  The modes are
    interleaved over :data:`TIMING_ROUNDS` rounds, so a slow phase of the
    host hits all of them alike, and each keeps its best events/s.  Returns
    the plain best rate over each other mode's (keyed by that mode) and the
    last result of every mode.  Every run must process the same events:
    observing a session must not change it.
    """
    best = dict.fromkeys(modes, 0.0)
    results: Dict[str, SessionResult] = {}
    counts = set()
    for _ in range(TIMING_ROUNDS):
        for mode in modes:
            result, seconds = run_mode(mode)
            results[mode] = result
            counts.add(result.events_processed)
            best[mode] = max(best[mode], result.events_processed / seconds)
    if len(counts) != 1:
        raise AssertionError(
            f"modes {list(modes)} changed the event trace: {sorted(counts)} events "
            "(observation must be pure)"
        )
    plain = modes[0]
    ratios = {mode: best[plain] / best[mode] for mode in modes[1:]}
    summary = ", ".join(f"{mode} {ratio:.2f}x" for mode, ratio in ratios.items())
    ctx.log(f"    slowdown vs {plain}: {summary}")
    return ratios, results


# ----------------------------------------------------------------------
# engine-throughput
# ----------------------------------------------------------------------
#: (num_nodes, num_windows) per scale; unknown scales use the reduced size.
ENGINE_SIZES = {
    "smoke": (20, 6),
    "reduced": (40, 30),
    "paper": (60, 40),
    "xlarge": (80, 40),
}


def throughput_config(num_nodes: int = 40, num_windows: int = 30, seed: int = 99) -> SessionConfig:
    """A mid-sized, congestion-free session dominated by engine work."""
    return SessionConfig(
        num_nodes=num_nodes,
        seed=seed,
        gossip=GossipConfig(fanout=7, refresh_every=1, retransmit_timeout=2.0),
        stream=StreamConfig(
            rate_kbps=600.0,
            payload_bytes=1000,
            source_packets_per_window=20,
            fec_packets_per_window=2,
            num_windows=num_windows,
        ),
        network=NetworkConfig(upload_cap_kbps=700.0, max_backlog_seconds=10.0),
        extra_time=20.0,
    )


def run_once(config: SessionConfig) -> SessionResult:
    """Run one session to completion (the benchmarked unit of work)."""
    return StreamingSession(config).run()


def frames_by_module(config: SessionConfig) -> Tuple[Dict[str, int], int]:
    """Named-function frames executed under ``src/repro``, per module, and the events.

    Returns ``({"core.node": frames, ...}, events_processed)`` for one run of
    ``config``: where :func:`frames_per_event`'s work goes, module by module
    (comprehension, lambda and generated ``<string>`` frames are left out,
    as there).
    """
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + os.sep
    by_file: Dict[str, int] = {}

    def on_profile_event(frame, event, arg) -> None:
        code = frame.f_code
        if event == "call" and code.co_name[0] != "<" and code.co_filename.startswith(package_root):
            path = code.co_filename
            by_file[path] = by_file.get(path, 0) + 1

    def counted_run() -> int:
        sys.setprofile(on_profile_event)  # this thread only, and it ends with the run
        return run_once(config).events_processed

    with ThreadPoolExecutor(max_workers=1) as pool:  # a ``run --profile`` keeps its profiler
        events = pool.submit(counted_run).result()
    by_module: Dict[str, int] = {}
    for path, frames in by_file.items():
        module = os.path.splitext(path[len(package_root):])[0].replace(os.sep, ".")
        module = module[: -len(".__init__")] if module.endswith(".__init__") else module
        by_module[module] = by_module.get(module, 0) + frames
    return by_module, events


def frames_per_event(config: SessionConfig) -> float:
    """Named-function frames executed under ``src/repro`` per simulated event.

    A work counter: a function of the code and the config alone, identical on
    every host and interpreter (comprehension, lambda and generated
    ``<string>`` frames are left out — 3.12 inlines the first).  The sum of
    :func:`frames_by_module` over the events.
    """
    by_module, events = frames_by_module(config)
    return sum(by_module.values()) / events


def _engine_size(ctx: BenchContext) -> tuple:
    default_nodes, default_windows = ENGINE_SIZES.get(ctx.scale_name, ENGINE_SIZES["reduced"])
    return (
        ctx.option_int("nodes", default_nodes),
        ctx.option_int("windows", default_windows),
    )


def run_engine_throughput(ctx: BenchContext) -> dict:
    num_nodes, num_windows = _engine_size(ctx)
    config = throughput_config(num_nodes=num_nodes, num_windows=num_windows)
    result = run_once(config)  # also imports what the counted pass would
    return {
        "events_processed": float(result.events_processed),
        "delivery_ratio": result.delivery_ratio(),
        "frames_per_event": frames_per_event(config),
    }


# ----------------------------------------------------------------------
# observer-overhead
# ----------------------------------------------------------------------
#: The plain session first: the slowdowns are relative to it.
OBSERVER_MODES = ("unobserved", "noop", "invariants")


def run_observed_session(num_nodes: int, num_windows: int, mode: str) -> tuple:
    """One full session in the given observation mode; (result, seconds)."""
    from repro.validation import InvariantSuite, SessionObserver, attach_session_observer

    session = StreamingSession(throughput_config(num_nodes=num_nodes, num_windows=num_windows))
    session.build()
    suite = None
    if mode == "noop":
        attach_session_observer(session, SessionObserver())
    elif mode == "invariants":
        suite = InvariantSuite.default().attach(session)
    started = time.perf_counter()
    result = session.run()
    if suite is not None:
        suite.finalize(result)
    return result, time.perf_counter() - started


def run_observer_overhead(ctx: BenchContext) -> dict:
    num_nodes, num_windows = _engine_size(ctx)
    ratios, results = slowdowns(
        OBSERVER_MODES, lambda mode: run_observed_session(num_nodes, num_windows, mode), ctx
    )
    return {
        "events_processed": float(results["unobserved"].events_processed),
        "noop_slowdown": ratios["noop"],
        "invariants_slowdown": ratios["invariants"],
    }


# ----------------------------------------------------------------------
# telemetry-overhead
# ----------------------------------------------------------------------
#: The plain session first: the slowdowns are relative to it.
TELEMETRY_MODES = ("disabled", "disarmed", "metrics", "traced")


def telemetry_session_config(num_nodes: int, num_windows: int, mode: str, trace_dir):
    """The throughput session with telemetry armed as ``mode`` says."""
    import dataclasses

    from repro.telemetry.config import TelemetryConfig

    telemetry = {
        "disabled": None,
        "disarmed": TelemetryConfig(metrics=False),
        "metrics": TelemetryConfig(metrics=True),
        "traced": TelemetryConfig(
            metrics=True, trace_path=str(Path(trace_dir) / f"bench_{mode}.jsonl")
        ),
    }[mode]
    return dataclasses.replace(
        throughput_config(num_nodes=num_nodes, num_windows=num_windows),
        telemetry=telemetry,
    )


def run_telemetry_overhead(ctx: BenchContext) -> dict:
    """The telemetry layer's price in its four arming modes.

    ``disabled`` (no config) and ``disarmed`` (config present, nothing
    armed) must both ride the host-keeps-``None`` fast path, so the
    disarmed slowdown is the idle cost of merely *having* the layer —
    pinned near 1x.  ``metrics`` and ``traced`` record what arming costs.
    """
    num_nodes, num_windows = _engine_size(ctx)
    with tempfile.TemporaryDirectory(prefix="bench-telemetry-") as trace_dir:

        def config(mode: str) -> SessionConfig:
            return telemetry_session_config(num_nodes, num_windows, mode, trace_dir)

        def run_mode(mode: str) -> tuple:
            started = time.perf_counter()
            result = run_once(config(mode))
            return result, time.perf_counter() - started

        ratios, results = slowdowns(TELEMETRY_MODES, run_mode, ctx)
        frames = {mode: frames_per_event(config(mode)) for mode in ("metrics", "traced")}
    return {
        "events_processed": float(results["disabled"].events_processed),
        "trace_events": float(results["traced"].telemetry.trace_events),
        "idle_slowdown": ratios["disarmed"],
        "metrics_slowdown": ratios["metrics"],
        "trace_slowdown": ratios["traced"],
        "metrics_frames_per_event": frames["metrics"],
        "traced_frames_per_event": frames["traced"],
    }


# ----------------------------------------------------------------------
# figure1 … figure8
# ----------------------------------------------------------------------
def _results_dir() -> Path:
    """``benchmarks/results/`` of the repo (generated, git-ignored)."""
    return default_baseline_root().parent / "results"


def write_figure_table(result: FigureResult) -> str:
    """Persist a figure's table under ``benchmarks/results/``; return the table.

    The single writer of the ``<figure>_<scale>.txt`` artifacts.
    Best-effort: on a read-only checkout the table is still
    returned, just not persisted (it is a convenience artifact only).
    """
    table = result.to_table()
    try:
        directory = _results_dir()
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{result.figure_id}_{result.scale_name}.txt"
        path.write_text(table + "\n", encoding="utf-8")
    except OSError:
        pass
    return table


def _table_checksum(table: str) -> float:
    """First 48 bits of the table's SHA-256 as an exactly-representable float."""
    return float(int(hashlib.sha256(table.encode("utf-8")).hexdigest()[:12], 16))


#: headline metric per figure: (label of the series, x accessor, unit).
def _figure_headline(figure_id: str, result: FigureResult, scale) -> float:
    if figure_id == "figure1":
        return result.series_by_label("offline viewing").y_at(float(scale.optimal_fanout))
    if figure_id == "figure2":
        series = result.series_by_label(f"fanout {scale.optimal_fanout}")
        return series.y_at(max(scale.fig2_lag_grid))
    if figure_id == "figure3":
        cap = max(scale.fig3_caps_kbps)
        series = result.series_by_label(f"offline viewing, {cap:.0f}kbps cap")
        return series.y_at(float(max(scale.fanout_grid)))
    if figure_id == "figure4":
        return max(series.max_y() for series in result.series)
    if figure_id in ("figure5", "figure6"):
        return result.series_by_label("offline viewing").y_at(1.0)
    if figure_id == "figure7":
        return result.series_by_label("20s lag, X=1").y_at(min(scale.churn_grid) * 100.0)
    if figure_id == "figure8":
        series = result.series_by_label("20s lag, X=1")
        # fsum: sum() rounds differently from 3.12 on (compensated summation).
        return math.fsum(series.ys()) / len(series.ys())
    raise KeyError(f"no headline metric defined for {figure_id!r}")


def run_figure(figure_id: str, ctx: BenchContext) -> dict:
    """Regenerate one figure, assert its paper shape, digest its table."""
    scale = ctx.scale
    cache = ctx.summary_cache()
    generator = ALL_FIGURES[figure_id]
    result = generator(scale, cache)
    write_figure_table(result)
    checks_run = 1.0
    try:
        FIGURE_CHECKS[figure_id](result, scale, cache)
    except FigureCheckSkipped as skip:
        checks_run = 0.0
        ctx.log(f"    shape checks skipped: {skip}")
    return {
        "points": float(sum(len(series.points) for series in result.series)),
        "series": float(len(result.series)),
        "table_checksum": _table_checksum(result.to_table()),
        "headline": _figure_headline(figure_id, result, scale),
        "checks_run": checks_run,
    }


def _figure_benchmark(figure_id: str, description: str) -> Benchmark:
    def run(ctx: BenchContext, figure_id=figure_id) -> dict:
        return run_figure(figure_id, ctx)

    return Benchmark(
        name=figure_id,
        description=description,
        run=run,
        tags=("figure", "paper"),
        metrics=(
            Metric("points", kind="identity", unit="points"),
            Metric("series", kind="identity", unit="series"),
            Metric("table_checksum", kind="identity"),
            Metric("headline", kind="counter", unit="% / kbps"),
            Metric("checks_run", kind="identity"),
        ),
    )


# ----------------------------------------------------------------------
# large-session (fast path vs the pinned reference)
# ----------------------------------------------------------------------
#: (num_nodes, num_windows) per scale; None = scenario default.
LARGE_SESSION_SIZES = {
    "smoke": (100, 4),
    "reduced": (150, 8),
}


def measure_metrics_stage(result) -> dict:
    """Fast quality analyzer vs the pinned reference, same session data."""
    from repro.experiments.scale import XLARGE
    from repro.metrics.quality import OFFLINE_LAG, StreamQualityAnalyzer
    from repro.metrics.reference import ReferenceQualityAnalyzer

    viewing_lags = (10.0, 20.0, OFFLINE_LAG)
    window_lags = (20.0,)
    lag_cdf_grid = XLARGE.fig2_lag_grid

    def extract(analyzer) -> dict:
        return {
            "viewing": [analyzer.viewing_ratio(lag) for lag in viewing_lags],
            "complete": [analyzer.average_complete_window_ratio(lag) for lag in window_lags],
            "lag_cdf": analyzer.lag_cdf(lag_cdf_grid),
        }

    schedule, deliveries = result.schedule, result.deliveries
    nodes = result.survivors()

    fast_seconds, fast_curves = best_seconds(
        lambda: extract(StreamQualityAnalyzer(schedule, deliveries, nodes))
    )
    reference_seconds, reference_curves = best_seconds(
        lambda: extract(ReferenceQualityAnalyzer(schedule, deliveries, nodes))
    )
    if fast_curves != reference_curves:
        raise AssertionError("fast metrics stage diverged from the reference implementation")
    return {"fast_seconds": fast_seconds, "reference_seconds": reference_seconds}


def run_large_session(ctx: BenchContext) -> dict:
    from repro.scenarios import build_scenario, run_spec

    default_nodes, default_windows = LARGE_SESSION_SIZES.get(ctx.scale_name, (None, None))
    num_nodes = ctx.option_int("nodes", default_nodes)
    num_windows = ctx.option_int("windows", default_windows)

    overrides = {}
    if num_nodes is not None:
        overrides["num_nodes"] = num_nodes
    if num_windows is not None:
        overrides["stream"] = StreamConfig.paper_defaults(num_windows=num_windows)
    spec = build_scenario("large-session", **overrides)
    ctx.log(f"    session: {spec.describe()}")

    result = run_spec(spec)
    stage = measure_metrics_stage(result)
    speedup = stage["reference_seconds"] / stage["fast_seconds"] if stage["fast_seconds"] else 0.0
    ctx.log(f"    metrics speedup vs the reference: {speedup:.1f}x (identical results)")
    return {
        "events_processed": float(result.events_processed),
        "delivery_ratio": result.delivery_ratio(),
        "metrics_speedup": speedup,
        "identical_results": 1.0,
    }


# ----------------------------------------------------------------------
# sharded-session
# ----------------------------------------------------------------------
#: (num_nodes, num_windows) per scale.  The metropolis scale runs the
#: registered scenario at full size — nightly territory, not CI's.
SHARDED_SESSION_SIZES = {
    "smoke": (30, 4),
    "reduced": (60, 6),
    "metropolis": (None, None),
}


def _delivery_checksum(result) -> float:
    """First 48 bits of a SHA-256 over every (node, packet, time) delivery.

    The strongest identity the gate can pin: two runs agree on this float
    only if every delivery of every packet at every node landed at the
    bit-identical instant.
    """
    digest = hashlib.sha256()
    deliveries = result.deliveries.raw()
    for node_id in sorted(deliveries):
        for packet_id in sorted(deliveries[node_id]):
            digest.update(
                f"{node_id}:{packet_id}:{deliveries[node_id][packet_id]!r};".encode("ascii")
            )
    return float(int(digest.hexdigest()[:12], 16))


def run_sharded_session(ctx: BenchContext) -> dict:
    """The sharded runner vs the scalar oracle, identity gated.

    Identity metrics (event count, delivery checksum) gate CI: the sharded
    run must be byte-identical to the scalar run of the same config.  So do
    the numbers that decide the runner's speed — the lookahead the placement
    bought, the barrier windows the run took and the events per window — all
    pure functions of the config.  Its wall clock is the e2e ``shard2``
    workload's to measure.
    """
    from repro.scenarios import build_scenario
    from repro.shard import execute_sharded

    default_nodes, default_windows = SHARDED_SESSION_SIZES.get(
        ctx.scale_name, SHARDED_SESSION_SIZES["reduced"]
    )
    num_nodes = ctx.option_int("nodes", default_nodes)
    num_windows = ctx.option_int("windows", default_windows)
    shards = ctx.option_int("shards", 2)
    mode = ctx.options.get("mode", "thread")

    overrides = {"shards": shards}
    if num_nodes is not None:
        overrides["num_nodes"] = num_nodes
    if num_windows is not None:
        overrides["stream"] = StreamConfig.paper_defaults(num_windows=num_windows)
    spec = build_scenario("metropolis", **overrides)
    config = spec.session_config()
    ctx.log(f"    session: {spec.describe()} ({shards} shards, {mode} mode)")

    run = execute_sharded(config, mode=mode)
    sharded = run.result
    ctx.log(
        f"    sharded: {sharded.events_processed:,} events, "
        f"{run.windows:,} windows at a {run.plan.lookahead * 1000:.2f} ms lookahead"
    )

    # The scalar oracle doubles the benchmark's cost, so the full-size
    # metropolis leg skips it by default (``--option oracle=1`` forces it).
    run_oracle = bool(ctx.option_int("oracle", 0 if config.num_nodes > 1000 else 1))
    metrics = {
        "events_processed": float(sharded.events_processed),
        "delivery_checksum": _delivery_checksum(sharded),
        "delivery_ratio": sharded.delivery_ratio(),
        "lookahead_ms": run.plan.lookahead * 1000.0,
        "windows": float(run.windows),
        "events_per_window": sharded.events_processed / run.windows,
        "oracle_checked": 1.0 if run_oracle else 0.0,
    }
    if run_oracle:
        oracle = StreamingSession(config).run()
        if (
            oracle.events_processed != sharded.events_processed
            or _delivery_checksum(oracle) != metrics["delivery_checksum"]
        ):
            raise AssertionError(
                "sharded run diverged from the scalar oracle "
                f"(events {sharded.events_processed} vs {oracle.events_processed})"
            )
        ctx.log("    scalar : identical events and deliveries")
    return metrics


# ----------------------------------------------------------------------
# wire
# ----------------------------------------------------------------------
#: (num_nodes, num_windows) per scale for the traffic-capture session.
WIRE_SIZES = {
    "smoke": (30, 4),
    "reduced": (60, 6),
}


def run_wire(ctx: BenchContext) -> dict:
    """Compact wire format vs pickled batches, on real cross-shard traffic.

    A scalar session runs with a *tap* router that schedules every delivery
    unchanged but records each datagram whose sender and receiver fall on
    different sides of a 2-shard partition, grouped into lookahead-sized
    windows per source shard — the batches a real shard run would flush.
    The capture is then encoded and decoded in-process: serialized bytes
    per datagram against pickling the legacy tuple batches (the acceptance
    bar is at least 2x fewer).  Every number is deterministic.
    """
    import pickle
    from collections import defaultdict

    from repro.network.transport import DatagramRouter
    from repro.scenarios import build_scenario
    from repro.shard.partition import plan_shards
    from repro.shard.wire import decode_batch, encode_batch

    default_nodes, default_windows = WIRE_SIZES.get(ctx.scale_name, WIRE_SIZES["reduced"])
    num_nodes = ctx.option_int("nodes", default_nodes)
    num_windows = ctx.option_int("windows", default_windows)
    shards = ctx.option_int("shards", 2)

    spec = build_scenario(
        "metropolis",
        num_nodes=num_nodes,
        shards=shards,
        stream=StreamConfig.paper_defaults(num_windows=num_windows),
    )
    config = spec.session_config()
    plan = plan_shards(config, shards)
    lookup = plan.lookup
    lookahead = plan.lookahead

    class _TapRouter(DatagramRouter):
        """Schedules locally like no router at all; records cross-shard traffic."""

        def __init__(self, network) -> None:
            self._network = network
            self.captured = []

        def dispatch(self, message, deliver_time) -> None:
            self._network.schedule_delivery(message, deliver_time)
            if lookup[message.sender] != lookup[message.receiver]:
                self.captured.append((deliver_time, message.sender, message.seq, message))

    class _TapSession(StreamingSession):
        def _build_network(self) -> None:
            super()._build_network()
            self.tap = _TapRouter(self.network)
            self.network.set_router(self.tap)

    session = _TapSession(config)
    session.run()
    captured = session.tap.captured
    if not captured:
        raise AssertionError("tap session produced no cross-shard traffic")

    windows = defaultdict(list)
    for routed in captured:
        windows[(int(routed[0] // lookahead), lookup[routed[1]])].append(routed)
    batches = [windows[key] for key in sorted(windows)]
    ctx.log(
        f"    capture: {len(captured):,} cross-shard datagrams in "
        f"{len(batches)} window batches ({spec.describe()})"
    )

    encoded = [encode_batch(batch) for batch in batches]
    for batch, packed in zip(batches, encoded):
        if decode_batch(packed) != batch:
            raise AssertionError("wire round-trip diverged from the captured batch")
    compact_bytes = sum(packed.nbytes for packed in encoded)
    pickle_bytes = sum(
        len(pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL)) for batch in batches
    )
    ratio = pickle_bytes / compact_bytes
    if ratio < 2.0:
        raise AssertionError(
            f"compact wire format too fat: {compact_bytes}B vs {pickle_bytes}B "
            f"pickled ({ratio:.2f}x, need >= 2x)"
        )
    ctx.log(
        f"    bytes  : compact {compact_bytes / len(captured):.1f}B/datagram vs "
        f"pickle {pickle_bytes / len(captured):.1f}B -> {ratio:.2f}x smaller"
    )
    return {
        "datagrams": float(len(captured)),
        "windows": float(len(batches)),
        "roundtrip_exact": 1.0,
        "compact_bytes": float(compact_bytes),
        "compact_bytes_per_datagram": compact_bytes / len(captured),
        "bytes_ratio": ratio,
    }


# ----------------------------------------------------------------------
# Registration (order = execution order of a full run)
# ----------------------------------------------------------------------
def register_all(registry=None) -> None:
    """Register the full suite (idempotence is the caller's concern)."""
    registry = registry if registry is not None else default_registry()

    registry.register(
        Benchmark(
            name="engine-throughput",
            description="events, delivery and frames per event of a full session",
            run=run_engine_throughput,
            tags=("engine", "throughput"),
            metrics=(
                Metric("events_processed", kind="identity", unit="events"),
                Metric("delivery_ratio", kind="identity"),
                Metric("frames_per_event", kind="counter", higher_is_better=False),
            ),
        )
    )
    registry.register(
        Benchmark(
            name="observer-overhead",
            description="validation hook layer cost: unobserved vs no-op vs armed invariants",
            run=run_observer_overhead,
            tags=("engine", "observer", "validation"),
            metrics=(
                Metric("events_processed", kind="identity", unit="events"),
                Metric("noop_slowdown", kind="ratio", higher_is_better=False, unit="x"),
                Metric("invariants_slowdown", kind="ratio", higher_is_better=False, unit="x"),
            ),
        )
    )

    registry.register(
        Benchmark(
            name="telemetry-overhead",
            description="telemetry layer cost: disabled vs disarmed vs metrics vs traced",
            run=run_telemetry_overhead,
            tags=("engine", "telemetry", "observability"),
            metrics=(
                Metric("events_processed", kind="identity", unit="events"),
                Metric("trace_events", kind="identity", unit="events"),
                Metric("idle_slowdown", kind="ratio", higher_is_better=False, unit="x"),
                Metric("metrics_slowdown", kind="ratio", higher_is_better=False, unit="x"),
                Metric("trace_slowdown", kind="ratio", higher_is_better=False, unit="x"),
                Metric("metrics_frames_per_event", kind="counter", higher_is_better=False),
                Metric("traced_frames_per_event", kind="counter", higher_is_better=False),
            ),
        )
    )

    figure_descriptions = {
        "figure1": "viewing % vs fanout at 700 kbps (bell with optimal plateau)",
        "figure2": "cumulative distribution of stream lag per fanout",
        "figure3": "fanout sweep under relaxed 1000/2000 kbps caps",
        "figure4": "distribution of per-node upload bandwidth usage",
        "figure5": "viewing % vs view refresh rate X",
        "figure6": "viewing % vs feed-me request rate Y (static mesh)",
        "figure7": "% of survivors unaffected by catastrophic churn",
        "figure8": "average % of complete windows for survivors vs churn",
    }
    for figure_id, description in figure_descriptions.items():
        registry.register(_figure_benchmark(figure_id, description))

    registry.register(
        Benchmark(
            name="large-session",
            description="fast-path flagship: the metrics stage vs its pinned reference",
            run=run_large_session,
            tags=("fastpath", "metrics", "scale"),
            metrics=(
                Metric("events_processed", kind="identity", unit="events"),
                Metric("delivery_ratio", kind="identity"),
                Metric("metrics_speedup", kind="ratio", tolerance=0.7, unit="x"),
                Metric("identical_results", kind="identity"),
            ),
        )
    )
    registry.register(
        Benchmark(
            name="sharded-session",
            description="conservative time-window shards vs the scalar oracle",
            run=run_sharded_session,
            tags=("shard", "parallel", "scale"),
            metrics=(
                Metric("events_processed", kind="identity", unit="events"),
                Metric("delivery_checksum", kind="identity"),
                Metric("delivery_ratio", kind="identity"),
                Metric("oracle_checked", kind="identity"),
                Metric("lookahead_ms", kind="identity", unit="ms"),
                Metric("windows", kind="identity", unit="windows"),
                Metric("events_per_window", kind="identity", unit="events"),
            ),
        )
    )
    registry.register(
        Benchmark(
            name="wire",
            description="compact cross-shard wire format vs pickled batches",
            run=run_wire,
            tags=("shard", "wire", "serialization"),
            metrics=(
                Metric("datagrams", kind="identity", unit="datagrams"),
                Metric("windows", kind="identity", unit="windows"),
                Metric("roundtrip_exact", kind="identity"),
                Metric("compact_bytes", kind="counter", higher_is_better=False, unit="B"),
                Metric(
                    "compact_bytes_per_datagram",
                    kind="counter",
                    higher_is_better=False,
                    unit="B",
                ),
                Metric("bytes_ratio", kind="ratio", tolerance=0.4, unit="x"),
            ),
        )
    )


register_all()
