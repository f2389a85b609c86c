"""Per-node protocol state.

Mirrors the sets of Algorithm 1:

* ``eventsDelivered`` → :attr:`NodeState.delivered` (with delivery times, so
  the metrics layer can compute lag without extra bookkeeping);
* ``eventsToPropose`` → :attr:`NodeState.events_to_propose` (infect-and-die:
  cleared after each gossip round);
* ``requestedEvents`` → :attr:`NodeState.request_attempts` (we keep a count,
  not just membership, to enforce the ``K``-attempts retransmission bound).

:class:`PendingRequest` tracks one armed retransmission timer: the proposal
it came from and which packets it may still re-request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.network.message import NodeId
from repro.simulation.timers import Timer
from repro.streaming.packets import PacketId


@dataclass(slots=True)
class PendingRequest:
    """An armed retransmission: re-ask ``proposer`` for still-missing packets."""

    proposer: NodeId
    packet_ids: Tuple[PacketId, ...]
    timer: Optional[Timer] = None
    retries_sent: int = 0

    def cancel(self) -> None:
        """Disarm the retransmission timer."""
        if self.timer is not None:
            self.timer.cancel()


@dataclass(slots=True)
class NodeState:
    """Mutable protocol state of one gossip node."""

    delivered: Dict[PacketId, float] = field(default_factory=dict)
    events_to_propose: List[PacketId] = field(default_factory=list)
    request_attempts: Dict[PacketId, int] = field(default_factory=dict)
    pending_requests: List[PendingRequest] = field(default_factory=list)

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
    def add_pending(self, pending: PendingRequest) -> None:
        """Track an armed retransmission."""
        self.pending_requests.append(pending)

    def remove_pending(self, pending: PendingRequest) -> None:
        """Forget a retransmission that fired or was cancelled."""
        try:
            self.pending_requests.remove(pending)
        except ValueError:
            pass

    def cancel_all_pending(self) -> None:
        """Disarm every retransmission timer (node shutdown)."""
        for pending in self.pending_requests:
            pending.cancel()
        self.pending_requests.clear()

