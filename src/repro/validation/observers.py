"""Observer base classes for the simulation's instrumentation edges.

Three substrates expose observer hooks, each zero-cost until somebody
registers (the hosts keep ``None`` instead of an empty list, so the hot
paths pay a single identity test per event/datagram):

* :class:`~repro.simulation.engine.Simulator` — the **event-dispatch edge**
  (:meth:`SimulationObserver.on_event_dispatch`), fired right before each
  popped event's callback runs;
* :class:`~repro.network.transport.Network` — one edge per **datagram
  fate** (accepted / congestion-dropped / lost in flight / delivered /
  dropped at a dead receiver / blocked at a dead sender) plus node
  failure/recovery transitions (:class:`TransportObserver`);
* :class:`~repro.core.node.GossipNode` — the **first-time delivery edge**
  (:meth:`DeliveryObserver.on_packet_delivered`) plus the **protocol-phase
  edges** (:class:`ProtocolObserver`): one callback per gossip round and
  per feed-me round, fired with the partner/target sets the node drew.

The base classes here are deliberately all no-ops: an invariant checker
subclasses the union (:class:`SessionObserver`) and overrides only the edges
it cares about, and the hosts call every method on every registered
observer without reflection.  Observers must not mutate what they observe —
the determinism contract (same config + seed ⇒ same result) holds with and
without observers attached, and ``tests/validation`` pins that.
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

from repro.network.message import Message, NodeId
from repro.streaming.packets import PacketId


class SimulationObserver:
    """Watches the simulator's event-dispatch edge."""

    def on_event_dispatch(
        self, time: float, callback: Any, args: Tuple[Any, ...]
    ) -> None:
        """An event is about to execute (clock already advanced to ``time``)."""


class TransportObserver:
    """Watches every fate a datagram can meet in the network substrate."""

    def on_send_blocked(self, message: Message, now: float) -> None:
        """The sender is dead or unregistered; nothing entered the network."""

    def on_send_accepted(self, message: Message, now: float, finish_time: float) -> None:
        """The sender's upload limiter accepted the datagram.

        ``finish_time`` is when its last byte leaves the node (serialization
        at the cap rate); the datagram may still be lost in flight or be
        dropped at a dead receiver.
        """

    def on_congestion_drop(self, message: Message, now: float) -> None:
        """The sender's upload backlog was full; the datagram was dropped."""

    def on_in_flight_loss(self, message: Message, now: float) -> None:
        """The loss model discarded the datagram after the limiter accepted it."""

    def on_delivered(self, message: Message, now: float) -> None:
        """The datagram reached a live receiver.

        Fires immediately *before* the receiver's handler runs, so traffic
        the handler emits in reaction observes this delivery as its cause.
        """

    def on_delivery_dropped(self, message: Message, now: float) -> None:
        """The receiver was dead or unregistered at arrival time."""

    def on_node_failed(self, node_id: NodeId, now: float) -> None:
        """``node_id`` crashed (churn): it stops sending and receiving."""

    def on_node_recovered(self, node_id: NodeId, now: float) -> None:
        """``node_id`` came back after a failure."""


class DeliveryObserver:
    """Watches first-time packet deliveries at gossip nodes."""

    def on_packet_delivered(
        self, node_id: NodeId, packet_id: PacketId, time: float, is_source: bool
    ) -> None:
        """``node_id`` delivered ``packet_id`` for the first time.

        ``is_source`` is true for the source's own local deliveries at
        publish time (which arrive through no network message).
        """


class ProtocolObserver:
    """Watches protocol-phase ticks at gossip nodes.

    These edges fire once per node per tick that runs: every FEED_ME tick,
    and every gossip tick of a node with something to propose (at most one
    per 0.2 s of simulated time; a parked node's skipped ticks fire none) —
    orders of magnitude cooler than the dispatch or
    datagram edges — and carry the partner/target draws the node is about
    to hand its dissemination strategy.  Observers must not mutate the
    sequences they receive.
    """

    def on_gossip_round(
        self, node_id: NodeId, time: float, partners: Sequence[NodeId]
    ) -> None:
        """``node_id`` starts a gossip round towards ``partners``."""

    def on_feed_me_round(
        self, node_id: NodeId, time: float, targets: Sequence[NodeId]
    ) -> None:
        """``node_id`` fires a feed-me round towards ``targets``."""


class SessionObserver(
    SimulationObserver, TransportObserver, DeliveryObserver, ProtocolObserver
):
    """Union base: observes every substrate of one streaming session."""


def attach_session_observer(session, observer: SessionObserver) -> None:
    """Register ``observer`` on a built session's simulator, network and nodes.

    The session must already be built (``session.build()``); registering
    before the substrates exist would silently observe nothing.
    """
    if session.simulator is None or session.network is None:
        raise ValueError(
            "session is not built yet: call session.build() before attaching observers"
        )
    session.simulator.add_observer(observer)
    observe_network_and_nodes(session, observer)


def observe_network_and_nodes(session, observer) -> None:
    """Register ``observer`` on a built session's network and nodes, not its engine."""
    session.network.add_observer(observer)
    for node in session.nodes.values():
        node.add_observer(observer)
