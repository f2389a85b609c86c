"""Eager push: the classic one-phase infect-and-die baseline.

Instead of the paper's three-phase id negotiation, an eager-push node sends
the *full packet payload* to every gossip partner the first round after it
learns the packet, then never pushes it again (infect and die).  This is the
textbook gossip dissemination the paper argues against under constrained
bandwidth: there is no request phase, so every duplicate costs a whole
packet of upload instead of an 8-byte id, and the narrow good-fanout window
collapses much earlier.

It exists as a comparison baseline for scenario experiments (see the
``eager-push`` scenario in :mod:`repro.scenarios.registry`).  The host
draws partner randomness the same way for every protocol, so two sessions
with equal configs and seeds see identical partner sequences regardless of
strategy; note the shipped scenario raises the upload cap and lowers the
fanout relative to ``homogeneous`` (changing the fanout changes partner
draws), because pure push cannot survive the paper's provisioning.

Counter conventions: pushes are accounted as serves (``serves_sent`` /
``packets_served``), duplicates as ``duplicate_serves_received``, so the
conformance invariants of the metrics layer apply unchanged.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.core.messages import ServePayload, serve_size
from repro.network.message import Message, NodeId
from repro.protocols.base import DisseminationProtocol
from repro.streaming.packets import PacketDescriptor, PacketId

PUSH = "push"
"""Message kind tag for eager full-payload pushes."""


class EagerPush(DisseminationProtocol):
    """One-phase gossip: push full packets, infect-and-die."""

    name = "eager-push"

    # ------------------------------------------------------------------
    # Source role
    # ------------------------------------------------------------------
    def on_publish(self, descriptor: PacketDescriptor, targets: List[NodeId], now: float) -> None:
        if not targets:
            return
        self._push(descriptor.packet_id, targets)

    # ------------------------------------------------------------------
    # Gossip round: push everything learned since the last round
    # ------------------------------------------------------------------
    def on_gossip_round(self, now: float, partners: List[NodeId]) -> None:
        packet_ids = self.host.state.drain_proposals()
        if not packet_ids or not partners:
            return
        for packet_id in packet_ids:
            self._push(packet_id, partners)

    def _push(self, packet_id: PacketId, targets: List[NodeId]) -> None:
        host = self.host
        size = serve_size(host.schedule.packet(packet_id).size_bytes)
        host.send_to_all(targets, PUSH, size, ServePayload(packet_id))
        host.stats.serves_sent += len(targets)
        host.stats.packets_served += len(targets)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def message_handlers(self) -> Dict[str, Callable[[Message], None]]:
        return {PUSH: self._handle_push}

    def _handle_push(self, message: Message) -> None:
        host = self.host
        packet_id = message.payload.packet_id
        if host.state.has_delivered(packet_id):
            host.stats.duplicate_serves_received += 1
            return
        host.deliver(packet_id, host.now)
        host.state.queue_for_proposal(packet_id)
