"""The gossip node host: timers, state, partner selection and network I/O.

A :class:`GossipNode` owns the per-node machinery and talks to three
substrates:

* the **network** (:class:`repro.network.Network`) to send datagrams and to
  receive them: the node is registered with its protocol's per-kind handler
  table (:attr:`GossipNode.message_handlers`), which the transport calls
  directly while the node's endpoint is alive;
* the **membership directory** through its :class:`PartnerSelector`, which
  implements the fanout and the view refresh rate ``X``;
* the stream's per-packet **SERVE table**
  (:func:`repro.core.messages.serve_table`), read when serving.

What the node actually *sends* is decided by a pluggable
:class:`~repro.protocols.base.DisseminationProtocol` strategy: the host fires
its hooks at every timer tick, publication and message arrival, passing along
any randomness it has already drawn (partner sets, source targets).  The
default strategy is the paper's :class:`~repro.protocols.ThreePhaseGossip`
(Algorithm 1); alternatives such as eager push plug in without touching this
class.

The same class plays both roles of the paper's deployment: ordinary nodes
(driven by their gossip timer) and the source (whose :meth:`publish` is
called by the :class:`repro.streaming.StreamEmitter` for every packet, as
``publish(e)`` in Algorithm 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.membership.directory import MembershipDirectory
from repro.membership.partners import INFINITE, PartnerSelector
from repro.network.message import Message, NodeId
from repro.network.transport import Network
from repro.protocols.base import DisseminationProtocol
from repro.streaming.packets import PacketDescriptor, PacketId

from repro.core.config import GOSSIP_PERIOD, GossipConfig
from repro.core.host import Host, ScheduledHandle
from repro.core.messages import ServeTable
from repro.core.state import NodeState

DeliveryListener = Callable[[NodeId, PacketId, float], None]
"""Callback invoked on every first-time packet delivery (node, packet, time)."""


@dataclass(slots=True)
class NodeStats:
    """Protocol-level counters of one node (all monotonically increasing)."""

    proposes_sent: int = 0
    proposals_received: int = 0
    requests_sent: int = 0
    requests_received: int = 0
    serves_sent: int = 0
    packets_served: int = 0
    retransmission_requests_sent: int = 0
    feed_me_sent: int = 0
    feed_me_received: int = 0
    duplicate_serves_received: int = 0
    gossip_rounds: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Counters as a plain dictionary (handy for reports and tests)."""
        return {
            "proposes_sent": self.proposes_sent,
            "proposals_received": self.proposals_received,
            "requests_sent": self.requests_sent,
            "requests_received": self.requests_received,
            "serves_sent": self.serves_sent,
            "packets_served": self.packets_served,
            "retransmission_requests_sent": self.retransmission_requests_sent,
            "feed_me_sent": self.feed_me_sent,
            "feed_me_received": self.feed_me_received,
            "duplicate_serves_received": self.duplicate_serves_received,
            "gossip_rounds": self.gossip_rounds,
        }


class GossipNode:
    """One participant of the gossip-based streaming system.

    Parameters
    ----------
    node_id:
        This node's identifier (must be registered on the network).
    simulator / network / directory:
        The substrates the node runs on.
    serves:
        Per packet id, the ``(size_bytes, payload)`` of the SERVE carrying
        it (:func:`repro.core.messages.serve_table`): a session builds one
        table from its schedule and every node shares it.
    config:
        Protocol knobs (fanout, X, Y, retransmission).
    delivery_listener:
        Optional callback invoked at every first-time packet delivery; the
        metrics layer uses it to build the delivery log.
    is_source:
        Whether this node is the stream source.  The source delivers packets
        through :meth:`publish` and hands each one immediately to the
        protocol with ``config.source_fanout`` random targets.
    protocol:
        The dissemination strategy.  ``None`` (the default) instantiates the
        paper's :class:`~repro.protocols.ThreePhaseGossip`.  The instance is
        bound to this node and must not be shared across nodes.
    """

    def __init__(
        self,
        node_id: NodeId,
        simulator: Host,
        network: Network,
        directory: MembershipDirectory,
        serves: ServeTable,
        config: GossipConfig,
        delivery_listener: Optional[DeliveryListener] = None,
        is_source: bool = False,
        protocol: Optional[DisseminationProtocol] = None,
    ) -> None:
        self.node_id = node_id
        self.is_source = is_source
        self.config = config
        # Exposed for protocol strategies.  A Simulator in simulated runs, an
        # AsyncioHost on the real backend: only the core.host.Host surface is used.
        self.simulator = simulator
        self._network = network
        self._directory = directory
        self.serves = serves  # every SERVE's size and payload, by packet id
        self._delivery_listener = delivery_listener
        self.state = NodeState()
        self.stats = NodeStats()
        self._alive = True
        self._observers: Optional[List[Any]] = None

        if protocol is None:
            from repro.protocols.three_phase import ThreePhaseGossip

            protocol = ThreePhaseGossip()
        self.protocol = protocol

        self._partner_rng = simulator.rng.node_stream("partners", node_id)
        self.partners = PartnerSelector(  # exposed for strategies, tests and experiments
            node_id=node_id,
            directory=directory,
            fanout=config.fanout,
            refresh_every=config.refresh_every,
            rng=self._partner_rng,
        )
        self.partners.catch_up = self.catch_up
        # The source proposes every packet to ``source_fanout`` nodes; its
        # target set obeys the same view refresh rate X as everybody else's
        # (Algorithm 1 routes publish() through the same selectNodes()).
        self._source_selector: Optional[PartnerSelector] = None
        self._source_round_index = -1
        self._source_targets: List[NodeId] = []
        if is_source:
            self._source_selector = PartnerSelector(
                node_id=node_id,
                directory=directory,
                fanout=config.source_fanout,
                refresh_every=config.refresh_every,
                rng=simulator.rng.node_stream("source-targets", node_id),
            )

        self._start_delay = simulator.rng.node_stream("round-phase", node_id).uniform(
            0.0, GOSSIP_PERIOD
        )
        # The gossip tick.  Infect-and-die: a tick with nothing to propose
        # only draws its partners, so after every tick the node *parks*: it
        # reserves the key the tick's re-arm would take and queues nothing.
        # ``_next_tick`` is the instant of the next tick, queued or not (the
        # float sums ``t += GOSSIP_PERIOD`` a periodic timer would produce;
        # infinite before start and after failure), ``_tick_slot`` its
        # reserved key while no replay has moved past it, ``_tick`` the
        # queued tick while the node has something to propose.
        self._next_tick = INFINITE
        self._tick_slot: Any = None
        self._tick: Optional[ScheduledHandle] = None

        # The FEED_ME round, every ``feed_me_every`` gossip periods from
        # start (never when infinite): it re-arms itself after each round.
        self._feed_me_period = config.feed_me_every * GOSSIP_PERIOD
        self._feed_me: Optional[ScheduledHandle] = None

        # Bind last: strategies may inspect the full ProtocolHost surface
        # (partners, timers) from an overridden bind().
        protocol.bind(self)
        #: The protocol's handler per message kind: the session registers
        #: this table as the node's transport endpoint.
        self.message_handlers = protocol.message_handlers()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """Whether the node is still running (it has not been crashed)."""
        return self._alive

    @property
    def now(self) -> float:
        """Current time on the host's time axis."""
        return self.simulator.now

    def start(self) -> None:
        """Start the node's timers.  Must be called once per experiment.

        The first gossip tick, ``round-phase`` seconds from now, is parked
        like every later one (:meth:`wake`).
        """
        simulator = self.simulator
        self._tick_slot = simulator.reserve(self._start_delay)
        self._next_tick = simulator.now + self._start_delay
        if self.state.events_to_propose:  # served before it started
            self.wake()
        if self._feed_me_period != INFINITE:
            self._feed_me = simulator.schedule(self._feed_me_period, self._on_feed_me_round)

    def fail(self) -> None:
        """Crash the node: stop all activity immediately (churn).

        The node's transport endpoint goes dead first
        (:meth:`repro.network.Network.fail_node`, which fires the
        ``on_node_failed`` edge): nothing is delivered to it, or sent by
        it, from here on.
        """
        self._network.fail_node(self.node_id)
        self._alive = False
        # Ticks skipped before the crash count as rounds; nothing reads their draws.
        self._count_ticks_through(math.nextafter(self.simulator.now, -math.inf))
        self._next_tick = INFINITE
        if self._tick is not None:
            self._tick.cancel()
            self._tick = None
        if self._feed_me is not None:
            self._feed_me.cancel()
            self._feed_me = None
        self.protocol.on_fail()
        self.state.cancel_all_pending()

    def finish(self) -> None:
        """The session ended at ``now``: count the skipped ticks up to it, undrawn.

        Makes ``stats.gossip_rounds`` the number of ticks a timer firing every
        period would have run.
        """
        self._count_ticks_through(self.simulator.now)

    # ------------------------------------------------------------------
    # Source role
    # ------------------------------------------------------------------
    def publish(self, descriptor: PacketDescriptor) -> None:
        """Publish one stream packet (Algorithm 1, ``publish(e)``).

        The packet is delivered locally and handed to the protocol together
        with ``source_fanout`` uniformly random target nodes.
        """
        if not self._alive:
            return
        now = self.simulator.now
        self.deliver(descriptor.packet_id, now)
        targets = self._pick_source_targets(now)
        self.protocol.on_publish(descriptor, targets, now)

    def _pick_source_targets(self, now: float) -> List[NodeId]:
        if self._source_selector is None:
            return []
        round_index = int(now / GOSSIP_PERIOD)
        if round_index != self._source_round_index:
            self._source_round_index = round_index
            self._source_targets = self._source_selector.partners_for_round(now)
        return list(self._source_targets)

    # ------------------------------------------------------------------
    # Timer ticks
    # ------------------------------------------------------------------
    def _on_gossip_round(self) -> None:
        now = self.simulator.now
        self.stats.gossip_rounds += 1
        partners = self.partners.partners_for_round(now)
        if self._observers is not None:
            for observer in self._observers:
                observer.on_gossip_round(self.node_id, now, partners)
        self.protocol.on_gossip_round(now, partners)
        # The protocol drained events_to_propose: park, taking the key the
        # timer's re-arm would take and queueing nothing.
        simulator = self.simulator
        self._tick_slot = simulator.reserve(GOSSIP_PERIOD)
        self._next_tick = simulator.now + GOSSIP_PERIOD
        self._tick = None

    def wake(self) -> None:
        """Queue the next gossip tick: the node has something to propose again.

        Protocols call it when ``state.events_to_propose`` turns non-empty.
        Before the reserved instant the tick takes the key its periodic
        re-arm would have taken; later, the skipped ticks are replayed
        (:meth:`catch_up`) and the next one is queued at its instant.
        """
        if self._next_tick == INFINITE:  # not started
            return
        simulator = self.simulator
        if self._next_tick < simulator.now:
            self.catch_up(simulator.now)
        if self._tick_slot is None:
            self._tick = simulator.schedule_at(self._next_tick, self._on_gossip_round)
        else:
            self._tick = simulator.schedule_reserved(self._tick_slot, self._on_gossip_round)

    def catch_up(self, now: float) -> None:
        """Replay the partner draws of the ticks skipped before ``now``.

        Each skipped tick at ``t`` calls ``partners_for_round(t)``, as it
        would have when it ran, so every later draw of the partner stream is
        unchanged.  Called before anything else reads that stream: the wake,
        a FEED_ME round or receipt (:attr:`PartnerSelector.catch_up`), and a
        membership change the directory cannot date (a flash-crowd join).
        """
        t = self._next_tick
        if t >= now:
            return
        partners_for_round = self.partners.partners_for_round
        rounds = 0
        while t < now:
            partners_for_round(t)
            rounds += 1
            t += GOSSIP_PERIOD
        self.stats.gossip_rounds += rounds
        self._next_tick = t
        self._tick_slot = None

    def _count_ticks_through(self, end: float) -> None:
        """Count the skipped ticks at or before ``end`` as rounds, drawing nothing."""
        t = self._next_tick
        if t > end:
            return
        rounds = 0
        while t <= end:
            rounds += 1
            t += GOSSIP_PERIOD
        self.stats.gossip_rounds += rounds
        self._next_tick = t
        self._tick_slot = None

    def _on_feed_me_round(self) -> None:
        simulator = self.simulator
        now = simulator.now
        targets = self.partners.pick_feed_me_targets(now)
        if self._observers is not None:
            for observer in self._observers:
                observer.on_feed_me_round(self.node_id, now, targets)
        self.protocol.on_feed_me_round(now, targets)
        if self._alive:  # fail() inside the round found no queued round to cancel
            self._feed_me = simulator.schedule(self._feed_me_period, self._on_feed_me_round)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def on_message(self, message: Message) -> None:
        """Hand one datagram to the node, past the transport.

        Ignores it once the node has failed; else calls the protocol's
        handler for ``message.kind`` and raises ``ValueError`` for a kind
        without one, as a delivery through the node's endpoint would.  The
        session registers :attr:`message_handlers` itself, so a delivery
        costs no frame here.
        """
        if not self._alive:
            return
        try:
            handler = self.message_handlers[message.kind]
        except KeyError:
            raise ValueError(f"node {self.node_id}: unknown message kind {message.kind!r}") from None
        handler(message)

    # ------------------------------------------------------------------
    # Services offered to the protocol strategy
    # ------------------------------------------------------------------
    def add_observer(self, observer: Any) -> None:
        """Register a node observer.

        ``observer.on_packet_delivered(node_id, packet_id, time, is_source)``
        fires on every *first-time* delivery, before the delivery listener
        (see :class:`repro.validation.observers.DeliveryObserver`), and
        ``on_gossip_round`` / ``on_feed_me_round`` fire at every gossip tick
        that runs (a parked node's skipped ticks fire none) and every FEED_ME
        tick (:class:`repro.validation.observers.ProtocolObserver`) —
        observers must implement all three, typically by subclassing
        :class:`~repro.validation.observers.SessionObserver`.  With no
        observers each edge pays one ``is None`` test.
        """
        if self._observers is None:
            self._observers = []
        self._observers.append(observer)

    def deliver(self, packet_id: PacketId, time: float) -> None:
        """Record a first-time delivery and notify the delivery listener."""
        delivered = self.state.delivered
        if packet_id in delivered:
            return
        delivered[packet_id] = time
        if self._observers is not None:
            for observer in self._observers:
                observer.on_packet_delivered(self.node_id, packet_id, time, self.is_source)
        if self._delivery_listener is not None:
            self._delivery_listener(self.node_id, packet_id, time)

    def send(self, receiver: NodeId, kind: str, size_bytes: int, payload: object) -> None:
        """Send a datagram from this node through the network substrate."""
        self._network.send_many((Message(self.node_id, receiver, kind, size_bytes, payload),))

    def send_many(self, datagrams: Sequence[Tuple[NodeId, str, int, object]]) -> None:
        """Send several datagrams at this instant in one transport batch.

        ``datagrams`` holds ``(receiver, kind, size_bytes, payload)`` tuples;
        equivalent to calling :meth:`send` for each in order (the transport
        batch preserves the per-message loss/latency draw order and delivery
        scheduling), but the sender-side bookkeeping is amortized over the
        burst.  Protocol fan-outs are the intended callers.
        """
        sender = self.node_id
        self._network.send_many(
            [
                Message(sender, receiver, kind, size_bytes, payload)
                for receiver, kind, size_bytes, payload in datagrams
            ]
        )

    def send_to_all(
        self, targets: Sequence[NodeId], kind: str, size_bytes: int, payload: object
    ) -> None:
        """Fan one payload out to every target in a single transport batch."""
        sender = self.node_id
        self._network.send_many(
            [Message(sender, target, kind, size_bytes, payload) for target in targets]
        )
