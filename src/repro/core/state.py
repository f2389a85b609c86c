"""Per-node protocol state.

Mirrors the sets of Algorithm 1:

* ``eventsDelivered`` → :attr:`NodeState.delivered` (with delivery times, so
  the metrics layer can compute lag without extra bookkeeping);
* ``eventsToPropose`` → :attr:`NodeState.events_to_propose` (infect-and-die:
  cleared after each gossip round);
* ``requestedEvents`` → :attr:`NodeState.request_attempts` (we keep a count,
  not just membership, to enforce the ``K``-attempts retransmission bound).

:class:`PendingRequest` is one armed retransmission and the event slot it
reserved; a node's pendings share one timeout, so arm order is deadline order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.core.host import ScheduledHandle
from repro.network.message import NodeId
from repro.streaming.packets import PacketId


@dataclass(slots=True)
class PendingRequest:
    """An armed retransmission: re-ask ``proposer`` for still-missing packets."""

    proposer: NodeId
    packet_ids: Tuple[PacketId, ...]
    slot: Any  # the host's reserved place in event order


@dataclass(slots=True)
class NodeState:
    """Mutable protocol state of one gossip node."""

    delivered: Dict[PacketId, float] = field(default_factory=dict)
    events_to_propose: List[PacketId] = field(default_factory=list)
    request_attempts: Dict[PacketId, int] = field(default_factory=dict)
    pending_requests: Deque[PendingRequest] = field(default_factory=deque)
    retransmission: Optional[ScheduledHandle] = None  # the front pending's queued event

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def has_delivered(self, packet_id: PacketId) -> bool:
        """Whether the packet has already been delivered to this node."""
        return packet_id in self.delivered

    # ------------------------------------------------------------------
    # Proposal queue (infect-and-die)
    # ------------------------------------------------------------------
    def queue_for_proposal(self, packet_id: PacketId) -> None:
        """Add a freshly delivered packet to the next round's proposal."""
        self.events_to_propose.append(packet_id)

    def drain_proposals(self) -> List[PacketId]:
        """Return and clear the pending proposal ids (one gossip round)."""
        drained = self.events_to_propose
        self.events_to_propose = []
        return drained

    # ------------------------------------------------------------------
    # Request bookkeeping
    # ------------------------------------------------------------------
    def record_request(self, packet_id: PacketId) -> None:
        """Count one REQUEST sent for the packet."""
        self.request_attempts[packet_id] = self.request_attempts.get(packet_id, 0) + 1

    # ------------------------------------------------------------------
    # Retransmission bookkeeping
    # ------------------------------------------------------------------
    def cancel_all_pending(self) -> None:
        """Disarm every retransmission (node shutdown)."""
        if self.retransmission is not None:
            self.retransmission.cancel()
            self.retransmission = None
        self.pending_requests.clear()
