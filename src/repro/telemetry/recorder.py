"""Session observers that feed the telemetry layer.

Both observers here ride the PR 4 instrumentation edges
(:mod:`repro.validation.observers`) and obey their contract: they never
mutate what they observe, so a session runs byte-identically with or
without them attached (pinned by ``tests/telemetry`` and the
``telemetry-overhead`` benchmark).

:class:`TraceRecorder` turns the edges into ``repro.telemetry/1`` events;
:class:`MetricsObserver` updates registry handles (the two fate counters no
traffic cell holds, and the histograms that only exist at observation
granularity — serialization delay, datagram sizes, delivery lag).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from typing import Any, Callable, Dict, Sequence, Tuple

from repro.network.message import Message, NodeId
from repro.streaming.packets import PacketId
from repro.streaming.schedule import StreamSchedule
from repro.validation.observers import SessionObserver, observe_network_and_nodes

from repro.telemetry import schema
from repro.telemetry.metrics import Histogram, MetricsRegistry
from repro.telemetry.render import json_text
from repro.telemetry.schema import _LINE_TEMPLATES, TraceWriter

#: Bucket bounds (seconds) for the upload-serialization delay histogram:
#: a 1 kB datagram at 700 kbps serializes in ~11 ms, so the buckets bracket
#: the uncongested case and stretch to multi-second backlog queueing.
SERIALIZATION_DELAY_BOUNDS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0)

#: Bucket bounds (bytes) for datagram sizes: control messages are tens of
#: bytes, stream packets ~1 kB (the paper's payload + headers).
DATAGRAM_SIZE_BOUNDS = (64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0)

#: Bucket bounds (seconds) for delivery lag behind publish time, spanning
#: the paper's playout lags (10 s / 20 s / offline).
DELIVERY_LAG_BOUNDS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0)

#: Callback names memoised per recorder: a session schedules a few dozen
#: functions, but closures and partials made afresh per event must not pile
#: up — the memo keeps each key, and what it binds, alive as long as it lives.
_FN_TEXT_LIMIT = 1024


def callback_name(callback: Any) -> str:
    """A deterministic display name for an event callback.

    Never falls back to ``repr`` — bound-method reprs embed memory
    addresses, which would make two identical runs produce different
    traces.
    """
    qualname = getattr(callback, "__qualname__", None)
    if isinstance(qualname, str):
        return qualname
    if isinstance(callback, partial):
        return callback_name(callback.func)
    bound = getattr(callback, "__func__", None)
    if bound is not None:
        return callback_name(bound)
    return type(callback).__name__


class _JsonTexts(dict):
    """``value -> json_text(value)``: a run repeats a few message kinds and two bools."""

    def __missing__(self, value: Any) -> str:
        text = self[value] = json_text(value)
        return text


def _fate_edge(kind: str) -> Callable[[Any, Message, float], None]:
    """The handler of one terminal fate of a datagram (``snd rcv mk sz d``)."""
    template = _LINE_TEMPLATES[kind]

    def on_fate(self: "TraceRecorder", message: Message, now: float) -> None:
        writer = self._writer
        buffer = writer.buffer
        buffer.append((
            template, now, message.sender, message.receiver, self._text[message.kind],
            message.size_bytes, message.seq,
        ))
        if len(buffer) >= schema.FLUSH_EVERY:
            writer.flush()

    return on_fate


_DISPATCH = _LINE_TEMPLATES["dispatch"]
_SEND = _LINE_TEMPLATES["send"]
_PACKET = _LINE_TEMPLATES["packet"]


class TraceRecorder(SessionObserver):
    """Streams every instrumentation edge into a trace writer.

    Datagram events carry the datagram's name ``(snd, d)``, where ``d`` is
    ``Message.seq`` — the sender's send count at acceptance, stamped by the
    transport and carried across shard and UDP wires — linking each
    ``send`` to its terminal fate on any substrate.

    The frequent edges (``dispatch``, ``send``, the three fates, ``packet``)
    append their record to the writer's buffer where they stand (see
    :class:`TraceWriter`), so a line costs one Python frame from the
    substrate's observer loop and no rendering: the writer's render child
    makes the line.  The rare edges call ``TraceWriter.write``.  A second
    frame per line is what the copies buy off.
    """

    def __init__(self, writer: TraceWriter) -> None:
        self._writer = writer
        self._fn_text: Dict[Any, str] = {}
        self._text = _JsonTexts()

    def attach(self, session) -> None:
        """Register on a built session's engine, network and nodes."""
        session.simulator.add_observer(self)
        observe_network_and_nodes(session, self)

    # ------------------------------------------------------------------
    # Engine edge
    # ------------------------------------------------------------------
    def on_event_dispatch(self, time: float, callback: Any, args: Tuple[Any, ...]) -> None:
        # Bound methods (every callback the substrates schedule) are made
        # afresh per event; the function under them names them all.  Any
        # other callable is its own key, if it can be one.
        function = getattr(callback, "__func__", callback)
        try:
            text = self._fn_text.get(function)
        except TypeError:  # unhashable
            function = text = None
        if text is None:
            text = json_text(callback_name(callback))
            if function is not None and len(self._fn_text) < _FN_TEXT_LIMIT:
                self._fn_text[function] = text
        writer = self._writer
        buffer = writer.buffer
        buffer.append((_DISPATCH, time, text))
        if len(buffer) >= schema.FLUSH_EVERY:
            writer.flush()

    # ------------------------------------------------------------------
    # Transport edges
    # ------------------------------------------------------------------
    def _unsent(self, kind: str, message: Message, now: float) -> None:
        self._writer.write(
            kind, now, message.sender, message.receiver, self._text[message.kind],
            message.size_bytes,
        )

    def on_send_blocked(self, message: Message, now: float) -> None:
        self._unsent("send_blocked", message, now)

    def on_send_accepted(self, message: Message, now: float, finish_time: float) -> None:
        writer = self._writer
        buffer = writer.buffer
        buffer.append((
            _SEND, now, message.sender, message.receiver, self._text[message.kind],
            message.size_bytes, message.seq, finish_time,
        ))
        if len(buffer) >= schema.FLUSH_EVERY:
            writer.flush()

    def on_congestion_drop(self, message: Message, now: float) -> None:
        self._unsent("drop_congestion", message, now)

    on_in_flight_loss = _fate_edge("loss")
    on_delivered = _fate_edge("deliver_msg")
    on_delivery_dropped = _fate_edge("drop_dead")

    def on_node_failed(self, node_id: NodeId, now: float) -> None:
        self._writer.write("node_failed", now, node_id)

    def on_node_recovered(self, node_id: NodeId, now: float) -> None:
        self._writer.write("node_recovered", now, node_id)

    # ------------------------------------------------------------------
    # Delivery edge
    # ------------------------------------------------------------------
    def on_packet_delivered(
        self, node_id: NodeId, packet_id: PacketId, time: float, is_source: bool
    ) -> None:
        writer = self._writer
        buffer = writer.buffer
        buffer.append((_PACKET, time, node_id, packet_id, self._text[is_source]))
        if len(buffer) >= schema.FLUSH_EVERY:
            writer.flush()

    # ------------------------------------------------------------------
    # Protocol-phase edges
    # ------------------------------------------------------------------
    def on_gossip_round(
        self, node_id: NodeId, time: float, partners: Sequence[NodeId]
    ) -> None:
        self._writer.write("round", time, node_id, len(partners))

    def on_feed_me_round(
        self, node_id: NodeId, time: float, targets: Sequence[NodeId]
    ) -> None:
        self._writer.write("feed_me_round", time, node_id, len(targets))


class MetricsObserver(SessionObserver):
    """Updates registry handles from the observer edges; counts no fate twice.

    What the session counts anyway — traffic bytes, protocol counters,
    events dispatched — is exported through snapshot-time collectors
    instead: ``net.messages_sent``, ``net.messages_dropped_congestion``,
    ``net.messages_lost_in_flight`` and ``net.messages_received`` are the
    accepted, congestion-dropped, lost and delivered datagrams.  The
    observer counts only the two fates no traffic cell holds:
    ``net.datagrams`` with ``fate`` ``blocked`` (dead sender) and
    ``dropped_dead`` (dead or unregistered receiver).

    The per-datagram edges write the histograms' slots in place — what
    ``Histogram.observe`` does, without the call.
    """

    def __init__(self, registry: MetricsRegistry, schedule: StreamSchedule) -> None:
        self._publish_times = {
            packet.packet_id: packet.publish_time for packet in schedule.packets()
        }
        self._blocked = registry.counter("net.datagrams", fate="blocked")
        self._dropped_dead = registry.counter("net.datagrams", fate="dropped_dead")
        self._serialization = registry.histogram(
            "net.serialization_delay_seconds", SERIALIZATION_DELAY_BOUNDS
        )
        self._lag = registry.histogram(
            "stream.delivery_lag_seconds", DELIVERY_LAG_BOUNDS
        )
        self._failures = registry.counter("membership.failures")
        self._recoveries = registry.counter("membership.recoveries")
        self._registry = registry
        self._size_by_kind: Dict[str, Histogram] = {}

    def _size_histogram(self, kind: str) -> Histogram:
        histogram = self._size_by_kind[kind] = self._registry.histogram(
            "net.datagram_bytes", DATAGRAM_SIZE_BOUNDS, kind=kind
        )
        return histogram

    def on_send_blocked(self, message: Message, now: float) -> None:
        self._blocked.inc()

    def on_send_accepted(self, message: Message, now: float, finish_time: float) -> None:
        delay = finish_time - now
        histogram = self._serialization
        histogram.counts[bisect_left(histogram.bounds, delay)] += 1
        histogram.total += 1
        histogram.sum += delay
        size = float(message.size_bytes)
        histogram = self._size_by_kind.get(message.kind) or self._size_histogram(message.kind)
        histogram.counts[bisect_left(histogram.bounds, size)] += 1
        histogram.total += 1
        histogram.sum += size

    def on_delivery_dropped(self, message: Message, now: float) -> None:
        self._dropped_dead.inc()

    def on_node_failed(self, node_id: NodeId, now: float) -> None:
        self._failures.inc()

    def on_node_recovered(self, node_id: NodeId, now: float) -> None:
        self._recoveries.inc()

    def on_packet_delivered(
        self, node_id: NodeId, packet_id: PacketId, time: float, is_source: bool
    ) -> None:
        if is_source:
            return
        lag = time - self._publish_times[packet_id]
        histogram = self._lag
        histogram.counts[bisect_left(histogram.bounds, lag)] += 1
        histogram.total += 1
        histogram.sum += lag


__all__ = [
    "DATAGRAM_SIZE_BOUNDS",
    "DELIVERY_LAG_BOUNDS",
    "MetricsObserver",
    "SERIALIZATION_DELAY_BOUNDS",
    "TraceRecorder",
    "callback_name",
]
