"""The dissemination-protocol strategy interface.

A :class:`~repro.core.node.GossipNode` is a *host*: it owns the per-node
machinery that every dissemination protocol needs — timers, partner
selection, protocol state, counters, and network I/O — but delegates every
*decision* (what to send on a gossip round, how to react to a datagram, what
to do when the source publishes a packet) to a :class:`DisseminationProtocol`
strategy bound to it.

The split keeps the paper's determinism guarantees in one place: the host
draws all randomness (partner sampling, round phases) in a fixed order, so
two strategies run over identical partner/timing sequences and differ only
in the messages they emit.  It also means a new protocol is a single small
class, not a fork of the node engine.

Strategies interact with their host through the :class:`ProtocolHost`
protocol below, which is exactly the public surface :class:`GossipNode`
exposes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, ClassVar, Dict, List, Protocol, runtime_checkable

from repro.network.message import Message, NodeId
from repro.streaming.packets import PacketDescriptor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import GossipConfig
    from repro.core.messages import ServeTable
    from repro.core.node import NodeStats
    from repro.core.state import NodeState
    from repro.membership.partners import PartnerSelector
    from repro.simulation.engine import Simulator


@runtime_checkable
class ProtocolHost(Protocol):
    """What a strategy may use of its node (implemented by ``GossipNode``)."""

    node_id: NodeId
    is_source: bool
    config: "GossipConfig"
    state: "NodeState"
    stats: "NodeStats"
    serves: "ServeTable"

    @property
    def alive(self) -> bool: ...

    @property
    def simulator(self) -> "Simulator": ...

    @property
    def now(self) -> float: ...

    @property
    def partners(self) -> "PartnerSelector": ...

    def send(self, receiver: NodeId, kind: str, size_bytes: int, payload: object) -> None: ...

    def deliver(self, packet_id: int, time: float) -> None: ...

    def wake(self) -> None: ...


class DisseminationProtocol(ABC):
    """Strategy deciding what a node sends and how it reacts to datagrams.

    One instance is bound to exactly one host via :meth:`bind`; strategies
    may keep per-node state on ``self``.

    The host calls the hooks with any randomness already drawn:

    * :meth:`on_publish` — the source published a packet; it has already been
      delivered locally and ``targets`` are the source-fanout recipients;
    * :meth:`on_gossip_round` — a gossip tick of a node with ids to propose;
      ``partners`` is this round's partner set (already refreshed per the
      ``X`` policy);
    * :meth:`on_feed_me_round` — ``Y`` periods elapsed; ``targets`` are the
      uniformly random feed-me recipients;
    * the handlers of :meth:`message_handlers` — a datagram of that kind
      arrived for this live node (the transport calls them directly; an
      unknown kind is its ``ValueError``);
    * :meth:`on_fail` — the node crashed (release protocol-owned timers).

    A gossip round comes only while the node has something to propose: a
    strategy that adds the first id to ``state.events_to_propose`` calls
    ``host.wake()``, and a round drains the list (infect-and-die).
    """

    name: ClassVar[str] = "abstract"

    def __init__(self) -> None:
        self.host: ProtocolHost = None  # type: ignore[assignment]

    def bind(self, host: ProtocolHost) -> None:
        """Attach the strategy to its node.  Called once, before start."""
        if self.host is not None:
            raise RuntimeError(
                f"protocol {self.name!r} is already bound to node {self.host.node_id}; "
                "use one strategy instance per node"
            )
        self.host = host

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def on_publish(self, descriptor: PacketDescriptor, targets: List[NodeId], now: float) -> None:
        """The source published ``descriptor`` (already delivered locally)."""

    @abstractmethod
    def on_gossip_round(self, now: float, partners: List[NodeId]) -> None:
        """A gossip tick with ids to propose; decide what to send to ``partners``."""

    def on_feed_me_round(self, now: float, targets: List[NodeId]) -> None:
        """``Y`` gossip periods elapsed.  Default: the mechanism is unused."""

    @abstractmethod
    def message_handlers(self) -> Dict[str, Callable[[Message], None]]:
        """The datagram kinds this strategy understands, each with its handler.

        Read once, after :meth:`bind`; the node's transport endpoint holds
        the table and, while the node is alive, calls
        ``handlers[message.kind](message)`` for every datagram that arrives.
        """

    def on_fail(self) -> None:
        """The node crashed.  Default: nothing beyond the host's cleanup."""
