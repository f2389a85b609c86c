"""High-level API: build and run one gossip streaming session.

A *session* is one complete experiment of the paper: one source streaming to
``n - 1`` receivers over a bandwidth-constrained network, with a given gossip
configuration, for a given stream length, optionally hit by churn or joined
by a flash crowd.  It wires every substrate together:

* a :class:`~repro.simulation.Simulator` seeded for reproducibility;
* a :class:`~repro.network.Network` with upload caps, latencies and loss;
* a :class:`~repro.membership.MembershipDirectory` plus per-node
  :class:`~repro.membership.PartnerSelector`;
* one :class:`~repro.core.node.GossipNode` per participant — each delegating
  its dissemination decisions to the strategy named by
  :attr:`SessionConfig.protocol` — and a
  :class:`~repro.streaming.StreamEmitter` driving the source;
* a :class:`~repro.metrics.DeliveryLog` and traffic statistics feeding the
  quality / lag / bandwidth analyzers.

Typical use::

    config = SessionConfig(num_nodes=60, seed=3,
                           gossip=GossipConfig(fanout=7),
                           network=NetworkConfig(upload_cap_kbps=700))
    result = StreamingSession(config).run()
    print(result.viewing_percentage(lag=10.0))

Prefer building configurations through the declarative scenario layer
(:mod:`repro.scenarios`) — ``run_scenario("churn-window", num_nodes=60)`` —
which composes a :class:`SessionConfig` from a named spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.membership.churn import CatastrophicChurn
from repro.membership.directory import MembershipDirectory
from repro.membership.join import FlashCrowdJoin
from repro.metrics.bandwidth import BandwidthUsage
from repro.metrics.delivery import DeliveryLog
from repro.metrics.quality import OFFLINE_LAG, StreamQualityAnalyzer
from repro.network.bandwidth import BandwidthCap
from repro.network.message import NodeId
from repro.network.stats import TrafficStats
from repro.network.transport import Network, NetworkConfig
from repro.protocols.registry import create_protocol, protocol_factory
from repro.simulation.engine import Simulator
from repro.streaming.schedule import StreamConfig, StreamSchedule
from repro.streaming.source import StreamEmitter
from repro.telemetry.config import TelemetryConfig

from repro.core.config import GossipConfig
from repro.core.messages import serve_table
from repro.core.node import GossipNode, NodeStats


@dataclass
class SessionConfig:
    """Everything needed to run one streaming session.

    The source (node 0) always uploads without a cap, like the paper's
    well-provisioned source; ``network`` caps the receivers.

    Attributes
    ----------
    num_nodes:
        Total number of nodes including the source (the paper uses 230).
    seed:
        Root seed; two sessions with equal configs and seeds are identical.
    gossip:
        Protocol knobs (fanout, X, Y, retransmission).
    stream:
        Stream rate, packet size, FEC window layout and length.
    network:
        Upload caps, latency model and random loss.
    protocol:
        Name of the dissemination protocol every node runs (resolved through
        :mod:`repro.protocols.registry`).  ``"three-phase"`` is the paper's
        Algorithm 1; ``"eager-push"`` is the one-phase baseline.
    churn:
        Optional :class:`CatastrophicChurn`.
    join:
        Optional :class:`FlashCrowdJoin`: the selected
        nodes stay outside the membership directory, with their timers
        stopped, until their join time.
    failure_detection_delay:
        Seconds before crashed nodes stop being selected as partners.
    extra_time:
        Simulated seconds to keep running after the last packet is
        published, letting throttled queues drain (this is what makes
        "offline viewing" recover for moderate fanouts, as in Figure 1).
    telemetry:
        Optional :class:`~repro.telemetry.config.TelemetryConfig`.  ``None``
        (the default) builds no telemetry objects at all — the session's
        object graph and hot paths are exactly the untraced ones.  An armed
        config attaches a metrics registry and/or a streaming trace
        recorder through the observer edges; the run's
        :attr:`SessionResult.telemetry` then carries the snapshot.
    shards:
        ``None`` (the default) runs the classic single-queue session with
        the historical shared RNG streams — bit-compatible with every
        golden file.  An integer ``k >= 1`` declares the session *sharded*:
        per-datagram randomness switches to placement-invariant per-sender
        streams, and :func:`run_session` routes execution through the
        conservative time-window runner (:mod:`repro.shard`), partitioning
        nodes across ``k`` workers.  The contract is exact: any shard count
        produces byte-identical results to a scalar
        :class:`StreamingSession` run of the same config (which is what
        ``tests/properties/test_shard_equivalence.py`` pins) — ``shards``
        changes *how* a session executes, never *what* it computes, but the
        per-sender RNG mode means ``shards=k`` results differ from
        ``shards=None`` ones.
    """

    num_nodes: int = 60
    seed: int = 1
    gossip: GossipConfig = field(default_factory=GossipConfig)
    stream: StreamConfig = field(default_factory=StreamConfig.scaled_down)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    protocol: str = "three-phase"
    churn: Optional[CatastrophicChurn] = None
    join: Optional[FlashCrowdJoin] = None
    failure_detection_delay: float = 5.0
    extra_time: float = 30.0
    telemetry: Optional[TelemetryConfig] = None
    shards: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ValueError(f"a session needs at least 2 nodes, got {self.num_nodes!r}")
        if self.shards is not None and self.shards < 1:
            raise ValueError(f"shards must be >= 1 (or None), got {self.shards!r}")
        if self.extra_time < 0.0:
            raise ValueError(f"extra_time must be >= 0, got {self.extra_time!r}")
        if self.failure_detection_delay < 0.0:
            raise ValueError(
                f"failure_detection_delay must be >= 0, got {self.failure_detection_delay!r}"
            )
        protocol_factory(self.protocol)  # fail fast on unknown protocol names

    @property
    def source_id(self) -> NodeId:
        """The source is always node 0."""
        return 0

    def receiver_ids(self) -> List[NodeId]:
        """Ids of all non-source nodes."""
        return list(range(1, self.num_nodes))


def session_horizon(config: SessionConfig) -> float:
    """The virtual time a session runs to: the last publish plus ``extra_time``.

    The one owner of the expression: the scalar session, the shard
    coordinator and ``python -m repro run``'s header line all read it here.
    """
    return config.stream.end_time + config.extra_time


@dataclass
class SessionResult:
    """Everything measured during one session."""

    config: SessionConfig
    schedule: StreamSchedule
    deliveries: DeliveryLog
    traffic: TrafficStats
    node_stats: Dict[NodeId, NodeStats]
    failed_nodes: List[NodeId]
    events_processed: int
    end_time: float
    late_joiners: List[NodeId] = field(default_factory=list)
    #: Telemetry snapshot (:class:`~repro.telemetry.session.TelemetrySnapshot`)
    #: when the config armed telemetry, else ``None``.  Excluded from
    #: equality: telemetry observes a run, it is not part of the result's
    #: identity.
    telemetry: Optional[object] = field(default=None, compare=False, repr=False)

    _quality_cache: Dict[str, StreamQualityAnalyzer] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    # Node groups
    # ------------------------------------------------------------------
    @property
    def source_id(self) -> NodeId:
        """The source node id."""
        return self.config.source_id

    def receivers(self) -> List[NodeId]:
        """All non-source nodes, including any that crashed."""
        return self.config.receiver_ids()

    def survivors(self) -> List[NodeId]:
        """Non-source nodes that did not crash during the run."""
        failed = set(self.failed_nodes)
        return [node_id for node_id in self.receivers() if node_id not in failed]

    # ------------------------------------------------------------------
    # Analyzers
    # ------------------------------------------------------------------
    def quality(self, survivors_only: bool = True) -> StreamQualityAnalyzer:
        """Quality analyzer over survivors (default) or all receivers."""
        key = "survivors" if survivors_only else "receivers"
        cached = self._quality_cache.get(key)
        if cached is None:
            nodes = self.survivors() if survivors_only else self.receivers()
            cached = StreamQualityAnalyzer(self.schedule, self.deliveries, nodes)
            self._quality_cache[key] = cached
        return cached

    def bandwidth_usage(self, include_source: bool = False) -> BandwidthUsage:
        """Per-node upload usage averaged over the whole run.

        The divisor is the full simulated duration (stream plus drain time),
        so a node that saturates its upload limiter for the entire run
        reports at most its cap — matching what the paper's Figure 4 plots.
        """
        nodes = self.receivers() if not include_source else [self.source_id] + self.receivers()
        duration = self.end_time if self.end_time > 0.0 else self.schedule.config.duration
        return BandwidthUsage(self.traffic, duration, nodes)

    # ------------------------------------------------------------------
    # Headline numbers (used by figures, examples and tests)
    # ------------------------------------------------------------------
    def viewing_percentage(
        self,
        lag: float = OFFLINE_LAG,
        max_jitter: float = 0.01,
        survivors_only: bool = True,
    ) -> float:
        """Percentage of nodes viewing the stream with ≤ ``max_jitter`` at ``lag``."""
        return self.quality(survivors_only).viewing_ratio(lag, max_jitter) * 100.0

    def average_complete_windows_percentage(
        self,
        lag: float,
        survivors_only: bool = True,
    ) -> float:
        """Average percentage of decodable windows across nodes (Figure 8)."""
        return self.quality(survivors_only).average_complete_window_ratio(lag) * 100.0

    def delivery_ratio(self) -> float:
        """Fraction of (survivor, packet) pairs that were delivered."""
        survivors = self.survivors()
        if not survivors:
            return 0.0
        total = len(survivors) * self.schedule.num_packets
        delivered = sum(self.deliveries.packets_delivered(node_id) for node_id in survivors)
        return delivered / total


class StreamingSession:
    """Builds and runs one gossip streaming experiment."""

    def __init__(self, config: SessionConfig) -> None:
        self.config = config
        self._built = False
        self.simulator: Optional[Simulator] = None
        self.network: Optional[Network] = None
        self.directory: Optional[MembershipDirectory] = None
        self.schedule: Optional[StreamSchedule] = None
        #: The nodes this session instantiates and registers: all of them.
        #: A shard session narrows it to its own slice; the directory and the
        #: churn/join plans stay whole, replica-identical across shards.
        self._owned: Sequence[NodeId] = range(config.num_nodes)
        self.nodes: Dict[NodeId, GossipNode] = {}
        self.emitter: Optional[StreamEmitter] = None
        self.deliveries: Optional[DeliveryLog] = None
        self._failed_nodes: List[NodeId] = []
        self._late_joiners: Tuple[NodeId, ...] = ()
        # Churn and join firings: a sharded run replicates them on every
        # shard, and the merge subtracts the copies from the event count.
        self._control_events = 0
        self.telemetry = None  # SessionTelemetry once built with an armed config

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self) -> None:
        """Instantiate every substrate.  Called automatically by :meth:`run`."""
        if self._built:
            raise RuntimeError("StreamingSession.build() called twice")
        self._built = True
        config = self.config

        simulator = self._create_simulator()
        self.simulator = simulator
        self.schedule = StreamSchedule(config.stream)
        self.deliveries = DeliveryLog(self.schedule)

        self._build_membership()
        self._build_network()
        self._build_nodes()
        self._build_plans()
        self._build_telemetry()

    def _create_simulator(self) -> Simulator:
        """The host driving this session; the real-network session swaps in a wall clock."""
        return Simulator(seed=self.config.seed)

    def _build_membership(self) -> None:
        config = self.config
        directory = MembershipDirectory(detection_delay=config.failure_detection_delay)
        # Evaluated once: the same tuple keeps the joiners out of the initial
        # directory here and is what _build_plans schedules.
        if config.join is not None:
            self._late_joiners = config.join.joiners(config.receiver_ids())
        late = set(self._late_joiners)
        directory.add_all(
            node_id for node_id in range(config.num_nodes) if node_id not in late
        )
        self.directory = directory

    def _build_network(self) -> None:
        assert self.simulator is not None
        config = self.config
        node_ids = list(range(config.num_nodes))
        # Sharded sessions key per-datagram randomness by sending node so a
        # node's draws do not depend on which shard runs it; unsharded
        # sessions keep the historical shared streams (golden-file compat).
        per_sender = config.shards is not None
        latency = config.network.build_latency(
            self.simulator.rng, node_ids, per_sender=per_sender
        )
        loss = config.network.build_loss(self.simulator.rng, per_sender=per_sender)
        self.network = Network(self.simulator, latency_model=latency, loss_model=loss)

    def _build_nodes(self) -> None:
        assert self.simulator is not None and self.network is not None
        assert self.directory is not None and self.schedule is not None
        assert self.deliveries is not None
        config = self.config
        serves = serve_table(self.schedule.packets())  # one table, shared by every node
        for node_id in self._owned:
            is_source = node_id == config.source_id
            # The source is a well-provisioned node: no 700 kbps cap can carry
            # the ``source_fanout`` copies of the stream it serves.
            cap = BandwidthCap.unlimited() if is_source else config.network.build_cap(node_id)
            node = GossipNode(
                node_id=node_id,
                simulator=self.simulator,
                network=self.network,
                directory=self.directory,
                serves=serves,
                config=config.gossip,
                delivery_listener=self.deliveries.record,
                is_source=is_source,
                protocol=create_protocol(config.protocol),
            )
            self.nodes[node_id] = node
            self.network.register(node_id, node.message_handlers, cap)
        # Only the session holding the source drives the stream (in a sharded
        # run, the shard owning it): its publications must exist exactly once.
        source = self.nodes.get(config.source_id)
        if source is not None:
            self.emitter = StreamEmitter(self.simulator, self.schedule, source.publish)

    def _build_plans(self) -> None:
        """Arm the churn and flash-crowd plans (replica-identical on every shard)."""
        assert self.simulator is not None and self.directory is not None
        config = self.config
        if config.churn is not None:
            victims = config.churn.victims(
                self.directory.churn_candidates(protected=[config.source_id]),
                self.simulator.rng.stream("churn"),
            )
            if victims:
                self.simulator.schedule_at(config.churn.time, self._apply_failures, victims)
        if config.join is not None and self._late_joiners:
            self.simulator.schedule_at(config.join.time, self._apply_joins, self._late_joiners)

    def _apply_failures(self, victims: Tuple[NodeId, ...]) -> None:
        assert self.directory is not None and self.simulator is not None
        self._control_events += 1
        now = self.simulator.now
        for node_id in victims:
            # The directory and failure bookkeeping cover every node; a shard
            # session holds (and crashes) only the nodes it owns, and a node
            # that fails takes its transport endpoint down with it.
            self._failed_nodes.append(node_id)
            self.directory.mark_failed(node_id, now)
            node = self.nodes.get(node_id)
            if node is not None:
                node.fail()

    def _build_telemetry(self) -> None:
        config = self.config
        if config.telemetry is None or not config.telemetry.armed:
            return
        # Imported lazily: the telemetry session layer observes sessions,
        # so importing it from here at module scope would be circular.
        from repro.telemetry.session import SessionTelemetry

        self.telemetry = SessionTelemetry(config.telemetry).attach(self)

    def _apply_joins(self, joiners: Tuple[NodeId, ...]) -> None:
        assert self.directory is not None and self.simulator is not None
        self._control_events += 1
        # A parked node replays its skipped ticks on the membership they saw:
        # unlike a failure, an addition carries no time the directory can honour.
        now = self.simulator.now
        for node in self.nodes.values():
            node.catch_up(now)
        for node_id in joiners:
            self.directory.add(node_id)
            node = self.nodes.get(node_id)  # a shard starts only the joiners it owns
            if node is not None:
                node.start()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> SessionResult:
        """Build (if needed), run to completion, and return the results."""
        until = self._start()
        assert self.simulator is not None
        try:
            self.simulator.run(until=until)
            self._finish_nodes()
        finally:  # a run that dies keeps its last buffered trace lines: they say why
            telemetry_snapshot = self._close_telemetry()
        return self._result(telemetry_snapshot)

    def _start(self) -> float:
        """Build (if needed), start the nodes and the stream; return the horizon."""
        if not self._built:
            self.build()
        assert self.schedule is not None
        late = set(self._late_joiners)
        for node_id, node in self.nodes.items():
            if node_id not in late:
                node.start()
        if self.emitter is not None:  # a shard without the source has none
            self.emitter.start()
        return session_horizon(self.config)

    def _finish_nodes(self) -> None:
        """Count every node's skipped gossip ticks up to the end: results and metrics read them."""
        for node in self.nodes.values():
            node.finish()

    def _close_telemetry(self):
        """Close the trace and snapshot the metrics (idempotent); ``None`` if unarmed."""
        return self.telemetry.finalize() if self.telemetry is not None else None

    def _result(self, telemetry_snapshot) -> SessionResult:
        """The session's outcome as it stands now."""
        assert self.simulator is not None and self.schedule is not None
        assert self.network is not None and self.deliveries is not None
        return SessionResult(
            config=self.config,
            schedule=self.schedule,
            deliveries=self.deliveries,
            traffic=self.network.stats,
            node_stats={node_id: node.stats for node_id, node in self.nodes.items()},
            failed_nodes=list(self._failed_nodes),
            events_processed=self.simulator.events_processed,
            end_time=self.simulator.now,
            late_joiners=list(self._late_joiners),
            telemetry=telemetry_snapshot,
        )


def run_session(config: SessionConfig) -> SessionResult:
    """Build and run a session, honouring :attr:`SessionConfig.shards`.

    ``shards=None`` runs the classic scalar session in-process.  A set shard
    count routes through the conservative time-window runner
    (:mod:`repro.shard`), which partitions the nodes across ``shards``
    workers and merges their fragments into one :class:`SessionResult` —
    byte-identical to running ``StreamingSession(config).run()`` directly.
    """
    if config.shards is not None:
        # Imported lazily: repro.shard builds per-shard StreamingSession
        # subclasses, so a module-scope import would be circular.
        from repro.shard import run_sharded

        return run_sharded(config)
    return StreamingSession(config).run()
