"""The paper's protocol: three-phase propose / request / serve gossip.

This is Algorithm 1 of the paper, extracted verbatim from the original
monolithic node engine:

* **phase 1** — on every gossip round, push the ids delivered since the last
  round (infect-and-die) to the round's partners as a PROPOSE;
* **phase 2** — on receiving a PROPOSE, request every id not yet delivered
  and never requested before; optionally arm a retransmission timer that
  re-requests ids still missing after a timeout, up to ``K`` attempts;
* **phase 3** — on receiving a REQUEST, serve the packets actually held.

The strategy also implements both sides of the ``Y`` proactiveness
mechanism: emitting FEED_ME datagrams every ``Y`` rounds and inserting
requesters into the partner view on receipt.

Moving a node's logic here must not change behaviour: a fixed-seed session
driven through :class:`ThreePhaseGossip` produces a delivery log identical
to the pre-refactor engine (pinned by ``tests/protocols/test_regression.py``).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Tuple

from repro.core.messages import (
    FEED_ME,
    PROPOSE,
    REQUEST,
    SERVE,
    ProposePayload,
    RequestPayload,
    ServePayload,
    feed_me_size,
    propose_size,
    request_size,
    serve_size,
)
from repro.core.state import PendingRequest
from repro.network.message import Message, NodeId
from repro.protocols.base import DisseminationProtocol
from repro.simulation.timers import Timer
from repro.streaming.packets import PacketDescriptor, PacketId


class ThreePhaseGossip(DisseminationProtocol):
    """Algorithm 1: propose ids, pull missing packets, serve on request."""

    name = "three-phase"

    # ------------------------------------------------------------------
    # Source role
    # ------------------------------------------------------------------
    def on_publish(self, descriptor: PacketDescriptor, targets: List[NodeId], now: float) -> None:
        host = self.host
        if not targets:
            return
        payload = ProposePayload(packet_ids=(descriptor.packet_id,))
        size = propose_size(1)
        host.send_to_all(targets, PROPOSE, size, payload)
        host.stats.proposes_sent += len(targets)

    # ------------------------------------------------------------------
    # Gossip round (phase 1: push ids)
    # ------------------------------------------------------------------
    def on_gossip_round(self, now: float, partners: List[NodeId]) -> None:
        host = self.host
        packet_ids = host.state.drain_proposals()
        if not packet_ids or not partners:
            return
        payload = ProposePayload(packet_ids=tuple(packet_ids))
        size = propose_size(len(packet_ids))
        host.send_to_all(partners, PROPOSE, size, payload)
        host.stats.proposes_sent += len(partners)

    # ------------------------------------------------------------------
    # Feed-me round (the Y mechanism, sending side)
    # ------------------------------------------------------------------
    def on_feed_me_round(self, now: float, targets: List[NodeId]) -> None:
        host = self.host
        host.send_to_all(targets, FEED_ME, feed_me_size(), None)
        host.stats.feed_me_sent += len(targets)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def message_handlers(self) -> Dict[str, Callable[[Message], None]]:
        return {
            PROPOSE: self._handle_propose,
            REQUEST: self._handle_request,
            SERVE: self._handle_serve,
            FEED_ME: self._handle_feed_me,
        }

    # Phase 2: request missing packets ---------------------------------
    # The handlers test Algorithm 1's sets (``state.delivered``,
    # ``state.request_attempts``) by membership, inline: the tests run once
    # per advertised id.
    def _handle_propose(self, message: Message) -> None:
        host = self.host
        host.stats.proposals_received += 1
        sender = message.sender
        packet_ids = message.payload.packet_ids
        delivered = host.state.delivered
        attempts = host.state.request_attempts
        wanted = [
            packet_id
            for packet_id in packet_ids
            if packet_id not in delivered and packet_id not in attempts
        ]
        if wanted:
            for packet_id in wanted:
                # An id advertised twice in one PROPOSE is requested twice.
                attempts[packet_id] = attempts[packet_id] + 1 if packet_id in attempts else 1
            self._send_request(sender, wanted)

        if host.config.retransmission_enabled:
            self._arm_retransmission(sender, packet_ids)

    def _send_request(self, proposer: NodeId, packet_ids: List[PacketId]) -> None:
        host = self.host
        payload = RequestPayload(packet_ids=tuple(packet_ids))
        size = request_size(len(packet_ids))
        host.send(proposer, REQUEST, size, payload)
        host.stats.requests_sent += 1

    def _retryable(self, packet_ids: Tuple[PacketId, ...]) -> List[PacketId]:
        """Ids still missing that the ``K`` bound allows requesting again."""
        delivered = self.host.state.delivered
        attempts = self.host.state.request_attempts
        max_attempts = self.host.config.max_request_attempts
        return [
            packet_id
            for packet_id in packet_ids
            if packet_id not in delivered
            and (packet_id not in attempts or attempts[packet_id] < max_attempts)
        ]

    def _arm_retransmission(self, proposer: NodeId, packet_ids: Tuple[PacketId, ...]) -> None:
        host = self.host
        if not self._retryable(packet_ids):
            return
        pending = PendingRequest(proposer=proposer, packet_ids=tuple(packet_ids))
        timer = Timer(host.simulator, partial(self._on_retransmit_timeout, pending))
        pending.timer = timer
        timer.arm(host.config.retransmit_timeout)
        host.state.add_pending(pending)

    def _on_retransmit_timeout(self, pending: PendingRequest) -> None:
        host = self.host
        host.state.remove_pending(pending)
        if not host.alive:
            return
        missing = self._retryable(pending.packet_ids)
        if not missing:
            return
        for packet_id in missing:
            host.state.record_request(packet_id)
        self._send_request(pending.proposer, missing)
        host.stats.retransmission_requests_sent += 1
        # Another retry may still be allowed for some of these packets; keep
        # a timer armed so the node eventually exhausts its K attempts.
        self._arm_retransmission(pending.proposer, pending.packet_ids)

    # Phase 3: serve requested packets ----------------------------------
    def _handle_request(self, message: Message) -> None:
        host = self.host
        host.stats.requests_received += 1
        sender = message.sender
        delivered = host.state.delivered
        packet_of = host.schedule.packet
        burst: List[Tuple[NodeId, str, int, object]] = []
        for packet_id in message.payload.packet_ids:
            if packet_id not in delivered:
                continue
            size = serve_size(packet_of(packet_id).size_bytes)
            burst.append((sender, SERVE, size, ServePayload(packet_id)))
        if burst:
            host.send_many(burst)
            host.stats.serves_sent += len(burst)
            host.stats.packets_served += len(burst)

    def _handle_serve(self, message: Message) -> None:
        host = self.host
        packet_id = message.payload.packet_id
        if packet_id in host.state.delivered:
            host.stats.duplicate_serves_received += 1
            return
        host.deliver(packet_id, host.simulator.now)
        host.state.events_to_propose.append(packet_id)

    def _handle_feed_me(self, message: Message) -> None:
        host = self.host
        host.stats.feed_me_received += 1
        host.partners.insert_requester(message.sender, host.now)
