"""Session observers that feed the telemetry layer.

Both observers here ride the PR 4 instrumentation edges
(:mod:`repro.validation.observers`) and obey their contract: they never
mutate what they observe, so a session runs byte-identically with or
without them attached (pinned by ``tests/telemetry`` and the
``telemetry-overhead`` benchmark).

:class:`TraceRecorder` turns the edges into ``repro.telemetry/1`` events;
:class:`MetricsObserver` updates registry handles (fate counters and the
histograms that only exist at observation granularity — serialization
delay, datagram sizes, delivery lag).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.network.message import Message, NodeId
from repro.streaming.packets import PacketId
from repro.streaming.schedule import StreamSchedule
from repro.validation.observers import SessionObserver

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.schema import EVENT_KINDS, TraceError, TraceWriter, json_text

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


class TraceRecorder(SessionObserver):
    """Streams every selected instrumentation edge into a trace writer.

    Datagram events share a **sequence number** (``d``) assigned in
    acceptance order, linking each ``send`` to its terminal fate.  The
    ``id(message) -> seq`` map only holds in-flight datagrams — terminal
    fates pop their entry — so memory stays bounded and recycled object
    ids cannot alias.  Sequence numbers are assigned even when ``send``
    events are filtered out, keeping ``d`` stable under any filter
    combination.
    """

    def __init__(
        self,
        writer: TraceWriter,
        sample_every: int = 1,
        include_kinds: Optional[Sequence[str]] = None,
        exclude_kinds: Sequence[str] = (),
    ) -> None:
        if sample_every < 1:
            raise TraceError(f"sample_every must be >= 1, got {sample_every!r}")
        wanted = set(EVENT_KINDS) if include_kinds is None else set(include_kinds)
        unknown = (wanted | set(exclude_kinds)) - set(EVENT_KINDS)
        if unknown:
            raise TraceError(
                f"unknown trace event kinds {sorted(unknown)}; known: {list(EVENT_KINDS)}"
            )
        wanted -= set(exclude_kinds)
        # The filter is resolved here, once: every kind gets its bound
        # ``writer.write``, or ``None`` when it is filtered out.
        self._emit: Dict[str, Optional[Callable[..., None]]] = {
            kind: partial(writer.write, kind) if kind in wanted else None
            for kind in EVENT_KINDS
        }
        self._sample_every = sample_every
        self._dispatch_seen = 0
        self._fn_text: Dict[Any, str] = {}
        self._next_seq = 0
        self._in_flight: Dict[int, int] = {}

    @property
    def records_dispatch(self) -> bool:
        """Whether the engine's dispatch edge is of any use to this recorder."""
        return self._emit["dispatch"] is not None

    # ------------------------------------------------------------------
    # Engine edge
    # ------------------------------------------------------------------
    def on_event_dispatch(self, time: float, callback: Any, args: Tuple[Any, ...]) -> None:
        emit = self._emit["dispatch"]
        if emit is None:
            return
        self._dispatch_seen += 1
        if (self._dispatch_seen - 1) % self._sample_every:
            return
        # Bound methods (every callback the substrates schedule) are made
        # afresh per event; the function under them names them all.
        function = getattr(callback, "__func__", None)
        text = self._fn_text.get(function)
        if text is None:
            text = json_text(callback_name(callback))
            if function is not None:
                self._fn_text[function] = text
        emit(time, text)

    # ------------------------------------------------------------------
    # Transport edges
    # ------------------------------------------------------------------
    def _datagram(self, kind: str, message: Message, now: float, *tail: Any) -> None:
        emit = self._emit[kind]
        if emit is not None:
            emit(
                now, message.sender, message.receiver, json_text(message.kind),
                message.size_bytes, *tail,
            )

    def on_send_blocked(self, message: Message, now: float) -> None:
        self._datagram("send_blocked", message, now)

    def on_send_accepted(self, message: Message, now: float, finish_time: float) -> None:
        seq = self._next_seq
        self._next_seq += 1
        self._in_flight[id(message)] = seq
        self._datagram("send", message, now, seq, json_text(finish_time))

    def on_congestion_drop(self, message: Message, now: float) -> None:
        self._datagram("drop_congestion", message, now)

    def on_in_flight_loss(self, message: Message, now: float) -> None:
        self._datagram("loss", message, now, self._in_flight.pop(id(message), -1))

    def on_delivered(self, message: Message, now: float) -> None:
        self._datagram("deliver_msg", message, now, self._in_flight.pop(id(message), -1))

    def on_delivery_dropped(self, message: Message, now: float) -> None:
        self._datagram("drop_dead", message, now, self._in_flight.pop(id(message), -1))

    def on_node_failed(self, node_id: NodeId, now: float) -> None:
        self._record("node_failed", now, node_id)

    def on_node_recovered(self, node_id: NodeId, now: float) -> None:
        self._record("node_recovered", now, node_id)

    # ------------------------------------------------------------------
    # Delivery edge
    # ------------------------------------------------------------------
    def on_packet_delivered(
        self, node_id: NodeId, packet_id: PacketId, time: float, is_source: bool
    ) -> None:
        self._record("packet", time, node_id, packet_id, json_text(is_source))

    # ------------------------------------------------------------------
    # Protocol-phase edges
    # ------------------------------------------------------------------
    def on_gossip_round(
        self, node_id: NodeId, time: float, partners: Sequence[NodeId]
    ) -> None:
        self._record("round", time, node_id, len(partners))

    def on_feed_me_round(
        self, node_id: NodeId, time: float, targets: Sequence[NodeId]
    ) -> None:
        self._record("feed_me_round", time, node_id, len(targets))

    def _record(self, kind: str, time: float, *values: Any) -> None:
        emit = self._emit[kind]
        if emit is not None:
            emit(time, *values)


class MetricsObserver(SessionObserver):
    """Updates registry handles from the observer edges.

    Only quantities *not* already counted by the simulation live here
    (everything the session counts anyway — traffic cells, protocol
    counters, events dispatched — is exported through snapshot-time
    collectors instead, keeping a single accounting code path).
    """

    def __init__(
        self, registry: MetricsRegistry, schedule: Optional[StreamSchedule] = None
    ) -> None:
        self._schedule = schedule
        self._fates = {
            fate: registry.counter("net.datagrams", fate=fate)
            for fate in (
                "blocked",
                "accepted",
                "congestion_drop",
                "loss",
                "delivered",
                "dropped_dead",
            )
        }
        self._serialization = registry.histogram(
            "net.serialization_delay_seconds", SERIALIZATION_DELAY_BOUNDS
        )
        self._lag = registry.histogram(
            "stream.delivery_lag_seconds", DELIVERY_LAG_BOUNDS
        )
        self._failures = registry.counter("membership.failures")
        self._recoveries = registry.counter("membership.recoveries")
        self._registry = registry
        self._size_by_kind: Dict[str, Any] = {}

    def _size_histogram(self, kind: str):
        histogram = self._size_by_kind.get(kind)
        if histogram is None:
            histogram = self._registry.histogram(
                "net.datagram_bytes", DATAGRAM_SIZE_BOUNDS, kind=kind
            )
            self._size_by_kind[kind] = histogram
        return histogram

    def on_send_blocked(self, message: Message, now: float) -> None:
        self._fates["blocked"].inc()

    def on_send_accepted(self, message: Message, now: float, finish_time: float) -> None:
        self._fates["accepted"].inc()
        self._serialization.observe(finish_time - now)
        self._size_histogram(message.kind).observe(float(message.size_bytes))

    def on_congestion_drop(self, message: Message, now: float) -> None:
        self._fates["congestion_drop"].inc()

    def on_in_flight_loss(self, message: Message, now: float) -> None:
        self._fates["loss"].inc()

    def on_delivered(self, message: Message, now: float) -> None:
        self._fates["delivered"].inc()

    def on_delivery_dropped(self, message: Message, now: float) -> None:
        self._fates["dropped_dead"].inc()

    def on_node_failed(self, node_id: NodeId, now: float) -> None:
        self._failures.inc()

    def on_node_recovered(self, node_id: NodeId, now: float) -> None:
        self._recoveries.inc()

    def on_packet_delivered(
        self, node_id: NodeId, packet_id: PacketId, time: float, is_source: bool
    ) -> None:
        if is_source or self._schedule is None:
            return
        publish_time = self._schedule.packet(packet_id).publish_time
        self._lag.observe(time - publish_time)


__all__ = [
    "DATAGRAM_SIZE_BOUNDS",
    "DELIVERY_LAG_BOUNDS",
    "MetricsObserver",
    "SERIALIZATION_DELAY_BOUNDS",
    "TraceRecorder",
    "callback_name",
]
