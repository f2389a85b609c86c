"""The per-layer ledger: one operation under ``cProfile``, bucketed by module.

Everything here observes the program from outside — a profiler around the
operation, counters read from public result objects, the public codecs timed
on messages captured through the public observer edge.  No span lives inside
``src/``; that is a later change.

For every layer *L* the ledger reports ``L.self_us_per_event`` (time busy:
self time of the functions defined in that module, excluding what they call)
and ``L.calls_per_event`` (work count: how many calls landed in it).  Call
counts of a simulated workload depend on the inputs alone and repeat exactly.
"""

from __future__ import annotations

import cProfile
import dataclasses
import functools
import os
import pstats
import resource
import statistics
import sys
import threading
import time
from typing import Dict, List, Tuple

from repro.core.session import SessionConfig, StreamingSession
from repro.realnet.codec import decode_message, encode_message
from repro.shard.wire import decode_batch, encode_batch
from repro.validation.observers import SessionObserver, attach_session_observer

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
_REPRO = os.path.dirname(os.path.abspath(sys.modules["repro"].__file__)) + os.sep

#: The modules a cost can be attributed to.  ``simulation.rng`` includes the
#: stdlib ``random`` module it wraps; ``python.builtins`` is C code called
#: from anywhere; ``python.stdlib`` is every other non-repro Python frame
#: (``json``, ``asyncio``, ``queue``, numpy, and the ``<string>`` frames of
#: dataclass-generated constructors, which carry no module name);
#: ``other`` is any ``repro`` module not listed, so attribution gaps show.
LAYERS: Tuple[str, ...] = (
    "simulation.engine",
    "simulation.backend",
    "simulation.event_queue",
    "simulation.timers",
    "simulation.rng",
    "network.transport",
    "network.bandwidth",
    "network.latency",
    "network.loss",
    "network.stats",
    "core.node",
    "core.state",
    "core.session",
    "protocols.three_phase",
    "membership.partners",
    "membership.directory",
    "streaming.schedule",
    "streaming.source",
    "metrics.delivery",
    "metrics.quality",
    "sweep.summary",
    "telemetry.recorder",
    "telemetry.metrics",
    "telemetry.schema",
    "shard.runner",
    "shard.session",
    "shard.wire",
    "realnet.host",
    "realnet.net",
    "realnet.codec",
    "python.builtins",
    "python.stdlib",
    "other",
)

#: Counters and ratios read at the layer boundaries, beside the two
#: per-layer series.  A metric that does not apply to a workload reads 0.
COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("network.datagrams_sent", "count"),
    ("network.congestion_drops", "count"),
    ("network.in_flight_losses", "count"),
    ("network.delivered_share", "ratio"),
    ("protocols.retransmissions", "count"),
    ("protocols.duplicate_serves", "count"),
    ("telemetry.trace_bytes_per_event", "B"),
    ("telemetry.overhead_ratio", "ratio"),
    ("shard.windows", "count"),
    ("shard.events_per_window", "count"),
    ("shard.wire_bytes_per_datagram", "B"),
    ("shard.wire.encode_us_per_datagram", "us"),
    ("shard.wire.decode_us_per_datagram", "us"),
    ("shard.barrier_wait_share", "ratio"),
    ("shard.speedup_vs_scalar", "ratio"),
    ("realnet.codec.encode_us", "us"),
    ("realnet.codec.decode_us", "us"),
    ("realnet.loop_lag_ms_p50", "ms"),
    ("realnet.loop_lag_ms_p99", "ms"),
    ("realnet.cpu_busy_pct", "%"),
    ("process.raw_run_s", "s"),
    ("process.host_slowdown", "ratio"),
    ("process.cpu_us_per_event", "us"),
    ("process.peak_rss_mb", "MB"),
    ("ledger.attributed_share", "ratio"),
    ("ledger.calls_per_event", "count"),
    ("ledger.overhead_ratio", "ratio"),
)


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in reporting order."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.self_us_per_event"] = "us"
        units[f"{layer}.calls_per_event"] = "count"
    units.update(COUNTERS)
    return units


# ----------------------------------------------------------------------
# Bucketing
# ----------------------------------------------------------------------
_WAITS = (
    "<method 'acquire' of '_thread.lock' objects>",
    "<method 'poll' of 'select.epoll' objects>",
    "<method 'poll' of 'select.poll' objects>",
    "<built-in method select.select>",
    "<built-in method time.sleep>",
    "<built-in method posix.waitpid>",
)
_NAMED = tuple(layer for layer in LAYERS if not layer.startswith(("python.", "other")))


def layer_of(filename: str, function: str) -> str:
    """The ledger bucket of one profiled function.

    Besides the layers this returns ``"wait"`` for blocking primitives
    (lock acquire, epoll, sleep — time nothing was busy) and ``"harness"``
    for the benchmark's own frames; neither is a layer's cost.
    """
    if filename == "~":
        if function in _WAITS:
            return "wait"
        if function.startswith("<method") and "'_random.Random'" in function:
            return "simulation.rng"
        return "python.builtins"
    if filename.startswith(_REPRO):
        module = filename[len(_REPRO):-len(".py")].replace(os.sep, ".")
        for layer in _NAMED:
            if module == layer or module.startswith(layer + "."):
                return layer
        return "other"
    if filename.startswith(HERE + os.sep):
        return "harness"
    if os.path.basename(filename) == "random.py":
        return "simulation.rng"
    return "python.stdlib"


class ThreadedProfile:
    """``cProfile`` over the calling thread and every thread started meanwhile.

    ``cProfile`` sees one thread; ``shard2``'s ledger run does its work in
    worker threads, so each new thread enables a profile of its own on its
    first profile event and the stats are merged afterwards.
    """

    def __init__(self) -> None:
        self._main = cProfile.Profile()
        self._workers: List[cProfile.Profile] = []
        self._lock = threading.Lock()

    def _bootstrap(self, frame, event, arg) -> None:
        profile = cProfile.Profile()
        with self._lock:
            self._workers.append(profile)
        profile.enable()  # replaces this bootstrap as the thread's profiler

    def __enter__(self) -> "ThreadedProfile":
        threading.setprofile(self._bootstrap)
        self._main.enable()
        return self

    def __exit__(self, *exc_info) -> None:
        self._main.disable()
        threading.setprofile(None)

    def buckets(self) -> Dict[str, Tuple[float, int]]:
        """Self seconds and call count of every layer, ``wait`` and ``harness``."""
        stats = pstats.Stats(self._main)
        for profile in self._workers:
            stats.add(profile)
        totals = dict.fromkeys(LAYERS + ("wait", "harness"), (0.0, 0))
        for (filename, _line, function), (_cc, calls, self_s, _ct, _callers) in stats.stats.items():
            layer = layer_of(filename, function)
            seconds, count = totals[layer]
            totals[layer] = (seconds + self_s, count + calls)
        return totals


# ----------------------------------------------------------------------
# Codec micro-measurements on captured messages
# ----------------------------------------------------------------------
class _MessageTap(SessionObserver):
    """Collects the datagrams a session's limiters accept."""

    def __init__(self) -> None:
        self.accepted: List[tuple] = []

    def on_send_accepted(self, message, now: float, finish_time: float) -> None:
        self.accepted.append((finish_time, message.sender, len(self.accepted) + 1, message))


def capture_datagrams(config: SessionConfig) -> List[tuple]:
    """Routed datagrams of a one-window scalar run of ``config``'s regime."""
    short = dataclasses.replace(
        config,
        stream=dataclasses.replace(config.stream, num_windows=1),
        extra_time=1.0,
        telemetry=None,
        churn=None,
    )
    session = StreamingSession(short)
    session.build()
    tap = _MessageTap()
    attach_session_observer(session, tap)
    session.run()
    return tap.accepted


def _best_us_per_item(function, batches: list, items: int, rounds: int = 5) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for batch in batches:
            function(batch)
        best = min(best, time.perf_counter() - start)
    return best / items * 1e6


def wire_codec_us(datagrams: List[tuple], batch_size: int) -> Tuple[float, float]:
    """Encode and decode microseconds per datagram at the observed batch size."""
    batch_size = max(1, batch_size)
    batches = [datagrams[i:i + batch_size] for i in range(0, len(datagrams), batch_size)]
    encoded = [encode_batch(batch) for batch in batches]
    return (
        _best_us_per_item(encode_batch, batches, len(datagrams)),
        _best_us_per_item(decode_batch, encoded, len(datagrams)),
    )


def realnet_codec_us(datagrams: List[tuple]) -> Tuple[float, float]:
    """Encode and decode microseconds per message of the UDP payload codec."""
    messages = [datagram[3] for datagram in datagrams]
    encoded = [encode_message(message) for message in messages]
    return (
        _best_us_per_item(encode_message, messages, len(messages)),
        _best_us_per_item(decode_message, encoded, len(messages)),
    )


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Largest resident set of this process or any child, in MB (Linux: KB units)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@dataclasses.dataclass(frozen=True)
class Untraced:
    """What the same process measured with the profiler off: the ratios' bases.

    Raw median wall seconds, host slowdown, CPU seconds (self and waited-for
    children) and events of the unprofiled repetitions, and the wall seconds
    of the warm-up's scalar oracle run (0 when the workload has none).
    """

    wall_s: float
    slowdown: float
    cpu_s: float
    events: float
    oracle_s: float


def traced_run(
    workload: workloads.Workload, config: SessionConfig, untraced: Untraced
) -> Dict[str, float]:
    """Profile one operation and return every per-layer metric."""
    extras: Dict[str, object] = {}
    run = workload.run
    if workload.ledger_run is not None:
        run = functools.partial(workload.ledger_run, extras=extras)
    start = time.perf_counter()
    with ThreadedProfile() as profile:
        result, _summary = workload.op(config, run)
    profiled_s = time.perf_counter() - start

    lag_ms: List[float] = extras.get("loop_lag_ms", [])  # type: ignore[assignment]
    events = result.events_processed - len(lag_ms)
    buckets = profile.buckets()
    metrics = dict.fromkeys(metric_units(), 0.0)
    for layer in LAYERS:
        seconds, calls = buckets[layer]
        metrics[f"{layer}.self_us_per_event"] = seconds / events * 1e6
        metrics[f"{layer}.calls_per_event"] = calls / events
    busy_s = sum(buckets[layer][0] for layer in LAYERS)
    wait_s = buckets["wait"][0]
    metrics["ledger.attributed_share"] = 1.0 - buckets["other"][0] / busy_s
    metrics["ledger.calls_per_event"] = sum(buckets[layer][1] for layer in LAYERS) / events
    metrics["ledger.overhead_ratio"] = profiled_s / untraced.wall_s
    metrics["process.raw_run_s"] = untraced.wall_s
    metrics["process.host_slowdown"] = untraced.slowdown
    metrics["process.cpu_us_per_event"] = untraced.cpu_s / untraced.events * 1e6
    metrics["process.peak_rss_mb"] = peak_rss_mb()

    traffic = result.traffic.raw().values()
    sent = sum(cell.messages_sent for cell in traffic)
    drops = result.traffic.total_congestion_drops()
    metrics["network.datagrams_sent"] = sent
    metrics["network.congestion_drops"] = drops
    metrics["network.in_flight_losses"] = result.traffic.total_in_flight_losses()
    metrics["network.delivered_share"] = (
        sum(cell.messages_received for cell in traffic) / (sent + drops)
    )
    node_stats = result.node_stats.values()
    metrics["protocols.retransmissions"] = sum(
        stats.retransmission_requests_sent for stats in node_stats
    )
    metrics["protocols.duplicate_serves"] = sum(
        stats.duplicate_serves_received for stats in node_stats
    )

    telemetry = config.telemetry
    if telemetry is not None and telemetry.trace_path is not None:
        metrics["telemetry.trace_bytes_per_event"] = os.path.getsize(telemetry.trace_path) / events
        metrics["telemetry.overhead_ratio"] = untraced.wall_s / untraced.oracle_s

    wire = extras.get("wire_stats")
    if wire is not None:
        windows = wire["windows"] / config.shards  # every shard flushes every window
        metrics["shard.windows"] = windows
        metrics["shard.events_per_window"] = events / windows
        metrics["shard.wire_bytes_per_datagram"] = wire["wire_bytes"] / max(1, wire["datagrams"])
        metrics["shard.barrier_wait_share"] = wait_s / (busy_s + wait_s)
        metrics["shard.speedup_vs_scalar"] = untraced.oracle_s / untraced.wall_s
        encode_us, decode_us = wire_codec_us(
            capture_datagrams(config), round(wire["datagrams"] / max(1, wire["batches"]))
        )
        metrics["shard.wire.encode_us_per_datagram"] = encode_us
        metrics["shard.wire.decode_us_per_datagram"] = decode_us

    if lag_ms:
        metrics["realnet.loop_lag_ms_p50"] = statistics.median(lag_ms)
        metrics["realnet.loop_lag_ms_p99"] = statistics.quantiles(lag_ms, n=100)[98]
        metrics["realnet.cpu_busy_pct"] = untraced.cpu_s / untraced.wall_s * 100.0
        encode_us, decode_us = realnet_codec_us(capture_datagrams(config))
        metrics["realnet.codec.encode_us"] = encode_us
        metrics["realnet.codec.decode_us"] = decode_us
    return metrics
