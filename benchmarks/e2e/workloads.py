"""The five workloads of the end-to-end benchmark: substrate by regime.

A workload turns a seed into one :class:`~repro.core.session.SessionConfig`
(the program sees nothing else), names the call that runs it on its
substrate, and states what must hold of the result relative to a second run
of the same inputs (determinism, shard parity, telemetry purity).  Nothing is
pinned to a constant: a later legitimate behaviour change needs no edit here.

Sizes are chosen so one timed repetition takes 1.2-2 s on the 2-core
reference host; ``quick=True`` shrinks every workload to well under a second
for the harness's own tests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import struct
from typing import Callable, Dict, List, Optional

from repro.core.session import SessionConfig, SessionResult, StreamingSession, run_session
from repro.experiments.scale import PAPER, SMOKE, ExperimentScale
from repro.membership.churn import CatastrophicChurn
from repro.realnet import RealNetConfig, RealNetSession
from repro.shard import run_sharded
from repro.shard.wire import WIRE_STATS
from repro.sweep.summary import MetricsRequest, PointSummary, summarize
from repro.telemetry.config import TelemetryConfig

#: Headline numbers extracted inside every timed repetition: the default
#: viewing lags plus the paper's complete-windows measure at a 10 s lag.
REQUEST = MetricsRequest(window_lags=(10.0,))

REALNET_TIME_SCALE = 0.5


def _scale(base: ExperimentScale, seed: int, fanout: int = 7, **changes) -> ExperimentScale:
    return dataclasses.replace(
        base, seed=seed, fanout_grid=(fanout,), optimal_fanout=fanout, **changes
    )


@dataclasses.dataclass(frozen=True)
class Workload:
    """One set of inputs and the substrate that runs them.

    ``make_config(seed, quick, workdir)`` generates the inputs; ``nominal_s``
    is what one operation takes on the quiet reference host, from which a run
    fixes its repetition count before it starts; ``run`` is the substrate
    call a timed repetition makes; ``session`` constructs the
    unbuilt session object whose ``build()`` the set-up probe times.
    ``ledger_run(config, extras)`` is the same work in a form a
    single-process profiler can see (``shard2`` runs its workers as threads
    there) and may drop extra measurements into ``extras``.
    ``deterministic`` workloads must repeat ``events_processed`` and the
    delivery checksum exactly; a ``wall_paced`` one (the realnet source emits
    by the clock) takes the same wall time however fast the host is, so its
    repetitions are not scaled by the host's speed;
    ``oracle`` derives the config whose scalar, untraced run the warm-up
    result must equal (shard parity, telemetry purity).
    """

    name: str
    why: str
    make_config: Callable[[int, bool, str], SessionConfig]
    nominal_s: float
    run: Callable[[SessionConfig], SessionResult]
    session: Callable[[SessionConfig], StreamingSession] = StreamingSession
    deterministic: bool = True
    wall_paced: bool = False
    oracle: Optional[Callable[[SessionConfig], SessionConfig]] = None
    ledger_run: Optional[Callable[[SessionConfig, Dict[str, object]], SessionResult]] = None

    def op(
        self, config: SessionConfig, run: Optional[Callable[[SessionConfig], SessionResult]] = None
    ) -> "tuple[SessionResult, PointSummary]":
        """One operation: run the session and extract the headline numbers.

        That is what a user waits for; ``run`` substitutes the ledger's
        variant of the substrate call.
        """
        result = (run or self.run)(config)
        return result, summarize(result, REQUEST, self.name, config.seed)


# ----------------------------------------------------------------------
# Input generation
# ----------------------------------------------------------------------
def _paper_geometry(seed: int, num_nodes: int, quick: bool) -> SessionConfig:
    """The paper's operating point (101+9 windows, 700 kbps, fanout 7, 1 % loss)."""
    if quick:
        return _scale(SMOKE, seed, num_nodes=24, num_windows=2, extra_time=3.0).session_config()
    return _scale(PAPER, seed, num_nodes=num_nodes, num_windows=2, extra_time=20.0).session_config()


def _paper230(seed: int, quick: bool, workdir: str) -> SessionConfig:
    return _paper_geometry(seed, 230, quick)


def _stressed120(seed: int, quick: bool, workdir: str) -> SessionConfig:
    scale = _scale(
        SMOKE,
        seed,
        fanout=10 if quick else 25,
        num_nodes=24 if quick else 120,
        num_windows=4 if quick else 12,
        max_backlog_seconds=2.0,
        random_loss=0.05,
        extra_time=4.0 if quick else 12.0,
    )
    config = scale.session_config(refresh_every=2, feed_me_every=10)
    mid_stream = config.stream.duration / 2.0
    return dataclasses.replace(config, churn=CatastrophicChurn(time=mid_stream, fraction=0.35))


def _telemetry(seed: int, quick: bool, workdir: str) -> SessionConfig:
    config = _paper_geometry(seed, 80, quick)
    trace_path = os.path.join(workdir, f"trace-{seed}.jsonl")
    return dataclasses.replace(
        config, telemetry=TelemetryConfig(metrics=True, trace_path=trace_path)
    )


def _shard2(seed: int, quick: bool, workdir: str) -> SessionConfig:
    return dataclasses.replace(_paper_geometry(seed, 100, quick), shards=2)


def _realnet(seed: int, quick: bool, workdir: str) -> SessionConfig:
    return _scale(
        SMOKE,
        seed,
        num_nodes=12 if quick else 30,
        num_windows=1 if quick else 6,
        extra_time=0.6 if quick else 2.25,
        retransmit_timeout=0.5,
    ).session_config()


# ----------------------------------------------------------------------
# Substrate calls
# ----------------------------------------------------------------------
def _run_shard_processes(config: SessionConfig) -> SessionResult:
    return run_sharded(config, mode="process")


def _ledger_shard_threads(config: SessionConfig, extras: Dict[str, object]) -> SessionResult:
    WIRE_STATS.reset()
    result = run_sharded(config, mode="thread")
    extras["wire_stats"] = WIRE_STATS.snapshot()
    return result


def _realnet_session(config: SessionConfig) -> RealNetSession:
    return RealNetSession(config, RealNetConfig(time_scale=REALNET_TIME_SCALE))


def _run_realnet(config: SessionConfig) -> SessionResult:
    return _realnet_session(config).run()


class LoopLagProbe:
    """A timer rescheduled through ``Host.schedule``: how late the loop ran it.

    The realnet source is wall-paced (open loop), so the generator's lateness
    is the signal that the loop is overrunning; ``run_s`` cannot show it.
    """

    PERIOD = 0.004  # virtual seconds: ~1000 samples per session, so p99 has 10 beyond it

    def __init__(self, host) -> None:
        self._host = host
        self._due = 0.0
        self.lag_ms: List[float] = []

    def arm(self) -> None:
        self._due = self._host.now + self.PERIOD
        self._host.schedule(self.PERIOD, self._fire)

    def _fire(self) -> None:
        late_virtual = self._host.now - self._due
        self.lag_ms.append(late_virtual * self._host.time_scale * 1000.0)
        self.arm()


def _ledger_realnet(config: SessionConfig, extras: Dict[str, object]) -> SessionResult:
    session = _realnet_session(config)
    session.build()
    probe = LoopLagProbe(session.simulator)
    probe.arm()
    result = session.run()
    extras["loop_lag_ms"] = probe.lag_ms
    return result


def _untraced(config: SessionConfig) -> SessionConfig:
    return dataclasses.replace(config, telemetry=None)


def run_scalar(config: SessionConfig) -> SessionResult:
    """The scalar oracle: one in-process :class:`StreamingSession`."""
    return StreamingSession(config).run()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper230",
            why="scalar simulator at the paper's own operating point, uncongested: "
            "engine, transport and protocol handlers do all the work",
            make_config=_paper230,
            nominal_s=1.8,
            run=run_session,
        ),
        Workload(
            name="stressed120",
            why="scalar simulator under congestion, 5 % loss, 35 % churn and FEED-ME: "
            "limiter drops, fired retransmission timers, dead receivers, partner refresh",
            make_config=_stressed120,
            nominal_s=1.5,
            run=run_session,
        ),
        Workload(
            name="telemetry",
            why="paper regime with metrics and a full JSONL trace armed: "
            "repro.telemetry and json dominate here and do nothing anywhere else",
            make_config=_telemetry,
            nominal_s=2.0,
            run=run_session,
            oracle=_untraced,
        ),
        Workload(
            name="shard2",
            why="two shard worker processes in lockstep windows: barrier round-trips, "
            "shard.wire and pipes dominate; checked against the scalar oracle",
            make_config=_shard2,
            nominal_s=1.6,
            run=_run_shard_processes,
            oracle=lambda config: config,
            ledger_run=_ledger_shard_threads,
        ),
        Workload(
            name="realnet",
            why="asyncio UDP sockets on loopback, wall-paced source (open loop): "
            "realnet.net/codec/host and asyncio work, simulation.* does none",
            make_config=_realnet,
            nominal_s=2.0,
            run=_run_realnet,
            session=_realnet_session,
            deterministic=False,
            wall_paced=True,
            ledger_run=_ledger_realnet,
        ),
    )
}


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def delivery_checksum(result: SessionResult) -> str:
    """Digest of every (node, packet, time) delivery, order-independent."""
    digest = hashlib.blake2b(digest_size=16)
    raw = result.deliveries.raw()
    for node_id in sorted(raw):
        packets = raw[node_id]
        digest.update(struct.pack("<qq", node_id, len(packets)))
        for packet_id in sorted(packets):
            digest.update(struct.pack("<qd", packet_id, packets[packet_id]))
    return digest.hexdigest()


def fingerprint(result: SessionResult) -> "tuple[int, str]":
    """What two runs of the same simulated inputs must agree on."""
    return result.events_processed, delivery_checksum(result)


def sanity_failures(result: SessionResult, summary: PointSummary) -> List[str]:
    """Relations every session result satisfies, whatever the substrate."""
    failures = []
    if result.events_processed <= 0:
        failures.append("no events processed")
    if not 0.0 < summary.delivery_ratio <= 1.0:
        failures.append(f"delivery_ratio {summary.delivery_ratio!r} outside (0, 1]")
    if summary.events_processed != result.events_processed:
        failures.append("summary and result disagree on events_processed")
    if summary.num_survivors + summary.num_failed != summary.num_receivers:
        failures.append("survivors + failed != receivers")
    return failures


def oracle_failures(
    workload: Workload, result: SessionResult, oracle_result: SessionResult
) -> List[str]:
    """Shard parity / telemetry purity: the oracle run must be indistinguishable."""
    if fingerprint(result) == fingerprint(oracle_result):
        return []
    return [
        f"{workload.name}: result differs from its scalar untraced oracle "
        f"({result.events_processed} vs {oracle_result.events_processed} events)"
    ]
