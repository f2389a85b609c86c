"""Runtime invariant checkers: the physics the paper's claims assume.

Each :class:`Invariant` is a :class:`~repro.validation.observers.SessionObserver`
that watches a running session through the observer edges and raises
:class:`InvariantViolation` the moment the simulation does something the
model forbids.  The shipped checkers:

* ``event-time-monotonicity`` — dispatched event times never decrease;
* ``bandwidth-cap`` — no capped node ever emits faster than its upload cap
  allows, and its throttling backlog never exceeds the configured bound;
* ``packet-conservation`` — every delivered datagram was actually sent
  (exactly once), every packet a non-source node "delivers" arrived in a
  SERVE/PUSH it really received, the delivery log agrees with the observed
  delivery edges, and a window counts as decodable iff enough of its shards
  were actually delivered (FEC accounting);
* ``protocol-conformance`` — under the paper's three-phase protocol, no
  REQUEST without a prior PROPOSE and no SERVE without a prior REQUEST;
* ``churn-hygiene`` — departed nodes neither send, nor handle, nor deliver
  anything after their failure instant.

A violation freezes the failure coordinates — the invariant's name and the
simulator's event index — which is what makes a fuzzer repro bundle
(:mod:`repro.validation.bundle`) replayable to the exact same point.

Checkers observe, never mutate: a session with an :class:`InvariantSuite`
armed produces bit-identical results to an unobserved one (pinned by
``tests/validation/test_observers.py``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.messages import PROPOSE, REQUEST, SERVE, ServePayload
from repro.core.session import SessionResult, StreamingSession
from repro.metrics.quality import OFFLINE_LAG
from repro.network.message import Message, NodeId
from repro.streaming.packets import PacketId

from repro.validation.observers import SessionObserver, attach_session_observer

_REL_EPS = 1e-9
"""Relative float tolerance for budget comparisons (pure-accounting checks
use exact equality)."""


class InvariantViolation(AssertionError):
    """A runtime invariant failed.

    Attributes
    ----------
    invariant:
        Name of the failed checker (stable across runs; bundle key).
    event_index:
        ``Simulator.events_processed`` at the instant of the violation —
        with a fixed seed and spec this is a deterministic coordinate, so a
        replay fails at the same index.
    detail:
        Free-form diagnostic context (node ids, byte counts, ...).
    """

    def __init__(self, invariant: str, event_index: int, message: str, **detail: Any) -> None:
        self.invariant = invariant
        self.event_index = event_index
        self.detail = detail
        extra = f" [{', '.join(f'{k}={v!r}' for k, v in detail.items())}]" if detail else ""
        super().__init__(f"[{invariant}] at event {event_index}: {message}{extra}")


class Invariant(SessionObserver):
    """Base class: one named checker attachable to a streaming session."""

    name: str = "invariant"

    def __init__(self) -> None:
        self._simulator = None

    @classmethod
    def applies_to(cls, session: StreamingSession) -> bool:
        """Whether this checker is meaningful for the session's configuration."""
        return True

    def bind(self, session: StreamingSession) -> None:
        """Capture session context (caps, schedule, ...) before observing.

        The session is guaranteed to be built.  Subclasses overriding this
        must call ``super().bind(session)``.
        """
        self._simulator = session.simulator

    def finalize(self, result: SessionResult) -> None:
        """End-of-session checks (run after the simulation completes)."""

    def fail(self, message: str, **detail: Any) -> None:
        """Raise an :class:`InvariantViolation` at the current event index."""
        event_index = self._simulator.events_processed if self._simulator is not None else -1
        raise InvariantViolation(self.name, event_index, message, **detail)


class EventTimeMonotonicity(Invariant):
    """Dispatched event times never decrease."""

    name = "event-time-monotonicity"

    def bind(self, session: StreamingSession) -> None:
        super().bind(session)
        self._last_time = session.simulator.now

    def on_event_dispatch(self, time: float, callback: Any, args: Tuple[Any, ...]) -> None:
        if time < self._last_time:
            self.fail(
                f"event time {time!r} is before the previously dispatched {self._last_time!r}",
                time=time,
                previous=self._last_time,
            )
        self._last_time = time


class BandwidthCapCompliance(Invariant):
    """No capped node emits faster than its upload cap allows.

    Two checks per accepted datagram, both exact properties of a correct
    serializing limiter that started idle at t = 0:

    * cumulative accepted bits through ``finish_time`` never exceed
      ``rate × finish_time`` (a rate-r serializer cannot have pushed more);
    * the backlog implied by ``finish_time - now`` never exceeds the
      configured ``max_backlog_seconds``.
    """

    name = "bandwidth-cap"

    def bind(self, session: StreamingSession) -> None:
        super().bind(session)
        self._rate_bps: Dict[NodeId, float] = {}
        self._max_backlog: Dict[NodeId, float] = {}
        self._bits_accepted: Dict[NodeId, float] = {}
        network = session.network
        for node_id in session.nodes:
            cap = network.limiter(node_id).cap
            if cap.rate_bps is not None:
                self._rate_bps[node_id] = cap.rate_bps
                self._max_backlog[node_id] = cap.max_backlog_seconds

    def on_send_accepted(self, message: Message, now: float, finish_time: float) -> None:
        rate = self._rate_bps.get(message.sender)
        if rate is None:
            return
        bits = self._bits_accepted.get(message.sender, 0.0) + message.size_bytes * 8.0
        self._bits_accepted[message.sender] = bits
        budget = rate * finish_time
        if bits > budget * (1.0 + _REL_EPS) + 1e-6:
            self.fail(
                f"node {message.sender} accepted {bits:.0f} bits by t={finish_time:.6f}s "
                f"but its {rate:.0f} bps cap only allows {budget:.0f}",
                node=message.sender,
                bits=bits,
                budget=budget,
            )
        backlog = finish_time - now
        limit = self._max_backlog[message.sender]
        if backlog > limit * (1.0 + _REL_EPS) + 1e-9:
            self.fail(
                f"node {message.sender} built a {backlog:.3f}s upload backlog "
                f"(limit {limit:.3f}s)",
                node=message.sender,
                backlog=backlog,
                limit=limit,
            )


def _packet_carried_by(message: Message) -> Optional[PacketId]:
    """The stream packet a datagram carries, if it carries one (SERVE/PUSH)."""
    payload = message.payload
    if isinstance(payload, ServePayload):
        return payload.packet.packet_id
    return None


class PacketConservation(Invariant):
    """No packet materializes out of thin air, and FEC accounting is honest.

    Runtime checks: a delivered datagram must be one the transport accepted
    (matched by its name ``(sender, seq)``, which survives a shard pipe or a
    UDP socket; delivered at most once; in-flight losses and dead-receiver
    drops release it), and a non-source node may only deliver a stream
    packet that arrived in a SERVE/PUSH datagram it received.

    Finalize checks: the session's :class:`~repro.metrics.delivery.DeliveryLog`
    must agree with the independently observed delivery edges node by node,
    and the quality analyzer must count a window as offline-decodable
    exactly when at least ``required_packets`` of its shards were delivered.
    """

    name = "packet-conservation"

    def bind(self, session: StreamingSession) -> None:
        super().bind(session)
        self._in_flight: Set[Tuple[NodeId, int]] = set()
        self._received_packets: Dict[NodeId, Set[PacketId]] = {}
        self._delivered: Dict[NodeId, Set[PacketId]] = {}

    def on_send_accepted(self, message: Message, now: float, finish_time: float) -> None:
        self._in_flight.add((message.sender, message.seq))

    def on_in_flight_loss(self, message: Message, now: float) -> None:
        self._in_flight.discard((message.sender, message.seq))

    def on_delivery_dropped(self, message: Message, now: float) -> None:
        self._in_flight.discard((message.sender, message.seq))

    def on_delivered(self, message: Message, now: float) -> None:
        name = (message.sender, message.seq)
        if name not in self._in_flight:
            self.fail(
                f"{message.kind!r} datagram delivered to node {message.receiver} "
                "was never accepted from its sender (forged or double delivery)",
                sender=message.sender,
                receiver=message.receiver,
                kind=message.kind,
            )
        self._in_flight.remove(name)
        packet_id = _packet_carried_by(message)
        if packet_id is not None:
            self._received_packets.setdefault(message.receiver, set()).add(packet_id)

    def on_packet_delivered(
        self, node_id: NodeId, packet_id: PacketId, time: float, is_source: bool
    ) -> None:
        delivered = self._delivered.setdefault(node_id, set())
        if packet_id in delivered:
            self.fail(
                f"node {node_id} reported packet {packet_id} as first-time delivered twice",
                node=node_id,
                packet=packet_id,
            )
        delivered.add(packet_id)
        if is_source:
            return
        if packet_id not in self._received_packets.get(node_id, ()):
            self.fail(
                f"node {node_id} delivered packet {packet_id} without ever "
                "receiving it in a SERVE/PUSH datagram",
                node=node_id,
                packet=packet_id,
            )

    def finalize(self, result: SessionResult) -> None:
        log = result.deliveries
        for node_id in [result.source_id] + result.receivers():
            observed = len(self._delivered.get(node_id, ()))
            recorded = log.packets_delivered(node_id)
            if observed != recorded:
                self.fail(
                    f"delivery log holds {recorded} packets for node {node_id} "
                    f"but {observed} first-time deliveries were observed",
                    node=node_id,
                )
        schedule = result.schedule
        per_window = schedule.config.packets_per_window
        num_packets = schedule.num_packets
        quality = result.quality()
        for node_id in result.survivors():
            counts = [0] * schedule.num_windows
            for packet_id in self._delivered.get(node_id, ()):
                if 0 <= packet_id < num_packets:
                    counts[packet_id // per_window] += 1
            for window in schedule.windows():
                decodable = counts[window.window_index] >= window.required_packets
                analyzed = quality.window_viewable(node_id, window.window_index, OFFLINE_LAG)
                if decodable != analyzed:
                    self.fail(
                        f"window {window.window_index} of node {node_id} has "
                        f"{counts[window.window_index]} delivered shards "
                        f"(required {window.required_packets}) but the analyzer "
                        f"counts it as {'decodable' if analyzed else 'not decodable'}",
                        node=node_id,
                        window=window.window_index,
                    )


class ProtocolConformance(Invariant):
    """Three-phase causality: PROPOSE before REQUEST before SERVE.

    Only attached when the session runs the paper's ``three-phase``
    protocol; one-phase push protocols serve unsolicited by design.
    """

    name = "protocol-conformance"

    @classmethod
    def applies_to(cls, session: StreamingSession) -> bool:
        return session.config.protocol == "three-phase"

    def bind(self, session: StreamingSession) -> None:
        super().bind(session)
        # Keyed (receiver of the earlier message, its sender): what `node`
        # has been proposed by / has requested from `peer`.
        self._proposed: Dict[Tuple[NodeId, NodeId], Set[PacketId]] = {}
        self._requested: Dict[Tuple[NodeId, NodeId], Set[PacketId]] = {}

    def on_delivered(self, message: Message, now: float) -> None:
        if message.kind == PROPOSE:
            self._proposed.setdefault(
                (message.receiver, message.sender), set()
            ).update(message.payload.packet_ids)
        elif message.kind == REQUEST:
            self._requested.setdefault(
                (message.receiver, message.sender), set()
            ).update(message.payload.packet_ids)

    def on_send_accepted(self, message: Message, now: float, finish_time: float) -> None:
        if message.kind == REQUEST:
            proposed = self._proposed.get((message.sender, message.receiver), set())
            unsolicited = [
                packet_id
                for packet_id in message.payload.packet_ids
                if packet_id not in proposed
            ]
            if unsolicited:
                self.fail(
                    f"node {message.sender} requested packets {unsolicited!r} from "
                    f"node {message.receiver}, which never proposed them",
                    requester=message.sender,
                    proposer=message.receiver,
                )
        elif message.kind == SERVE:
            packet_id = message.payload.packet.packet_id
            requested = self._requested.get((message.sender, message.receiver), set())
            if packet_id not in requested:
                self.fail(
                    f"node {message.sender} served packet {packet_id} to node "
                    f"{message.receiver} without a matching REQUEST",
                    server=message.sender,
                    requester=message.receiver,
                    packet=packet_id,
                )


class ChurnHygiene(Invariant):
    """Departed nodes fall silent: no sends, no handling, no deliveries."""

    name = "churn-hygiene"

    def bind(self, session: StreamingSession) -> None:
        super().bind(session)
        self._failed_at: Dict[NodeId, float] = {}

    def on_node_failed(self, node_id: NodeId, now: float) -> None:
        self._failed_at.setdefault(node_id, now)

    def on_node_recovered(self, node_id: NodeId, now: float) -> None:
        self._failed_at.pop(node_id, None)

    def on_send_accepted(self, message: Message, now: float, finish_time: float) -> None:
        failed_at = self._failed_at.get(message.sender)
        if failed_at is not None:
            self.fail(
                f"node {message.sender} (failed at t={failed_at:.3f}s) sent a "
                f"{message.kind!r} datagram at t={now:.3f}s",
                node=message.sender,
                kind=message.kind,
            )

    def on_delivered(self, message: Message, now: float) -> None:
        failed_at = self._failed_at.get(message.receiver)
        if failed_at is not None:
            self.fail(
                f"node {message.receiver} (failed at t={failed_at:.3f}s) handled a "
                f"{message.kind!r} datagram at t={now:.3f}s",
                node=message.receiver,
                kind=message.kind,
            )

    def on_packet_delivered(
        self, node_id: NodeId, packet_id: PacketId, time: float, is_source: bool
    ) -> None:
        failed_at = self._failed_at.get(node_id)
        if failed_at is not None:
            self.fail(
                f"node {node_id} (failed at t={failed_at:.3f}s) delivered packet "
                f"{packet_id} at t={time:.3f}s",
                node=node_id,
                packet=packet_id,
            )


DEFAULT_INVARIANTS: Tuple[type, ...] = (
    EventTimeMonotonicity,
    BandwidthCapCompliance,
    PacketConservation,
    ProtocolConformance,
    ChurnHygiene,
)
"""Every shipped checker, in attachment order."""


class InvariantSuite:
    """A set of invariants armed together on one streaming session."""

    def __init__(self, invariants: Sequence[Invariant]) -> None:
        self._invariants: List[Invariant] = list(invariants)
        self._attached: List[Invariant] = []
        self._session: Optional[StreamingSession] = None

    @classmethod
    def default(cls) -> "InvariantSuite":
        """Fresh instances of every shipped invariant."""
        return cls([factory() for factory in DEFAULT_INVARIANTS])

    def attach(self, session: StreamingSession) -> "InvariantSuite":
        """Bind and register every applicable checker on a built session.

        Attaching twice to the same session is a no-op (so a pre-attached
        suite can be handed to :func:`validate_session`); attaching to a
        *different* session is an error — the checkers carry per-session
        state and must not be shared.
        """
        if self._session is session:
            return self
        if self._session is not None:
            raise ValueError(
                "this InvariantSuite is already attached to another session; "
                "build a fresh suite per session"
            )
        if session.simulator is None:
            session.build()
        self._session = session
        for invariant in self._invariants:
            if not invariant.applies_to(session):
                continue
            invariant.bind(session)
            attach_session_observer(session, invariant)
            self._attached.append(invariant)
        return self

    def finalize(self, result: SessionResult) -> None:
        """Run every armed checker's end-of-session checks."""
        for invariant in self._attached:
            invariant.finalize(result)


def validate_session(
    session: StreamingSession, suite: Optional[InvariantSuite] = None
) -> SessionResult:
    """Run a session with invariants armed; raises on the first violation."""
    if session.simulator is None:
        session.build()
    suite = suite if suite is not None else InvariantSuite.default()
    suite.attach(session)
    result = session.run()
    suite.finalize(result)
    return result
