"""The unreliable, bandwidth-constrained transport.

:class:`Network` ties the substrate together.  Sending a datagram goes
through four stages, mirroring the paper's deployment:

1. the *sender's upload limiter* either queues it (adding serialization /
   throttling delay) or drops it when the backlog is full (congestion loss);
2. the *loss model* may drop it in flight (random UDP loss);
3. the *latency model* assigns a one-way propagation delay;
4. the datagram is delivered to the receiver's handler — unless the receiver
   has failed (churn) or was never registered.

There is no acknowledgement or retransmission at this layer; reliability is
the gossip protocol's job (request retries, FEC).

Observers
---------
Every fate a datagram can meet is exposed as an observer edge
(:meth:`Network.add_observer`): accepted by the upload limiter, dropped by
congestion, lost in flight, delivered to a live handler, or dropped at a
dead/unregistered receiver — plus node failure/recovery transitions.  The
validation layer (:mod:`repro.validation`) registers invariant checkers on
these edges; with no observers registered each edge costs one ``is None``
test, keeping the hot path at its pre-observer cost.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.simulation.engine import Simulator
from repro.simulation.rng import RngRegistry

from repro.network.bandwidth import BandwidthCap, UploadLimiter
from repro.network.latency import ConstantLatency, LatencyModel, PerNodeQualityLatency
from repro.network.loss import LossModel, NoLoss, UniformLoss
from repro.network.message import Message, NodeId, stamp_seq
from repro.network.stats import TrafficStats

MessageHandler = Callable[[Message], None]


class _Endpoint:
    """One registered node: handler, upload limiter and liveness.

    Grouping the three into a single slotted record keeps the per-datagram
    fast path at one dictionary lookup per side (sender, receiver) instead
    of three, which is visible at millions of sends per session.
    """

    __slots__ = ("handler", "limiter", "alive")

    def __init__(self, handler: MessageHandler, limiter: UploadLimiter) -> None:
        self.handler = handler
        self.limiter = limiter
        self.alive = True


@dataclass
class NetworkConfig:
    """Declarative description of a network substrate.

    Used by the experiment harness to build comparable networks across
    parameter sweeps.  All rates are in kbps; latencies in seconds.

    Attributes
    ----------
    upload_cap_kbps:
        Default per-node upload cap; ``None`` means unlimited.
    max_backlog_seconds:
        Throttling queue capacity, in seconds of serialization at the cap.
    latency_model:
        One of ``"constant"``, ``"uniform"``, ``"lognormal"``, ``"per-node"``.
    base_latency:
        Mean/median one-way latency in seconds.
    random_loss:
        Probability of in-flight loss per datagram (0 disables the model).
    """

    upload_cap_kbps: Optional[float] = 700.0
    max_backlog_seconds: float = 10.0
    latency_model: str = "per-node"
    base_latency: float = 0.05
    random_loss: float = 0.01
    per_node_caps_kbps: Dict[NodeId, Optional[float]] = field(default_factory=dict)

    def build_cap(self, node_id: NodeId) -> BandwidthCap:
        """The upload cap to apply to ``node_id``."""
        kbps = self.per_node_caps_kbps.get(node_id, self.upload_cap_kbps)
        return BandwidthCap.from_kbps(kbps, max_backlog_seconds=self.max_backlog_seconds)

    def build_latency(
        self, rng: RngRegistry, node_ids: list[NodeId], per_sender: bool = False
    ) -> LatencyModel:
        """Instantiate the configured latency model.

        ``per_sender=True`` keys the per-datagram draws by sending node (the
        placement-invariant mode the sharded runner requires); the default
        shares one stream, preserving the pre-sharding draw order bit for
        bit.
        """
        if self.latency_model == "constant":
            return ConstantLatency(self.base_latency)
        if self.latency_model == "uniform":
            from repro.network.latency import UniformLatency

            return UniformLatency(
                rng,
                low=self.base_latency * 0.4,
                high=self.base_latency * 2.0,
                per_sender=per_sender,
            )
        if self.latency_model == "lognormal":
            from repro.network.latency import LogNormalLatency

            return LogNormalLatency(rng, median=self.base_latency, per_sender=per_sender)
        if self.latency_model == "per-node":
            return PerNodeQualityLatency(
                rng, node_ids, base=self.base_latency, per_sender=per_sender
            )
        raise ValueError(f"unknown latency model {self.latency_model!r}")

    def build_loss(self, rng: RngRegistry, per_sender: bool = False) -> LossModel:
        """Instantiate the configured in-flight loss model."""
        if self.random_loss <= 0.0:
            return NoLoss()
        return UniformLoss(rng, probability=self.random_loss, per_sender=per_sender)


class DatagramRouter(ABC):
    """Decides where an accepted, un-lost datagram's delivery is scheduled.

    The transport computes each datagram's absolute delivery time (upload
    serialization plus propagation latency) and normally schedules the
    delivery on its own simulator.  With a router installed
    (:meth:`Network.set_router`) that decision is delegated: the sharded
    runner's router schedules locally owned receivers via
    :meth:`Network.schedule_delivery` and diverts everything else into the
    current time window's per-destination outbound batches — packed into the
    columnar wire format (:mod:`repro.shard.wire`) at the window flush — to
    be re-scheduled verbatim on the receiver's shard at the next barrier;
    the real-network router (:class:`repro.realnet.net.UdpNetwork`) schedules
    a ``sendto`` on a UDP socket and feeds what arrives back into the
    delivery stage.

    Routers sit *after* the limiter and loss stages on purpose: congestion
    and in-flight loss are sender-side physics and stay on the sender's
    shard no matter where the receiver lives.
    """

    @abstractmethod
    def dispatch(self, message: Message, deliver_time: float) -> None:
        """Route one datagram due for delivery at absolute ``deliver_time``."""


class Network:
    """Routes datagrams between registered endpoints.

    Parameters
    ----------
    simulator:
        The discrete-event simulator used for timing — or any host with its
        ``now`` / ``schedule_fire_and_forget[_at]`` surface (the realnet
        subclass passes its asyncio host).
    latency_model / loss_model:
        Substrate behaviour; see :mod:`repro.network.latency` and
        :mod:`repro.network.loss`.
    """

    def __init__(
        self,
        simulator: Simulator,
        latency_model: Optional[LatencyModel] = None,
        loss_model: Optional[LossModel] = None,
    ) -> None:
        self._simulator = simulator
        self._latency = latency_model if latency_model is not None else ConstantLatency()
        self._loss = loss_model if loss_model is not None else NoLoss()
        self._endpoints: Dict[NodeId, _Endpoint] = {}
        self.stats = TrafficStats()
        self._observers: Optional[List[Any]] = None
        # ``None`` when deliveries are scheduled locally (the scalar path):
        # like observers, the hot path then pays one identity test per send.
        self._router: Optional[DatagramRouter] = None

    # ------------------------------------------------------------------
    # Registration and liveness
    # ------------------------------------------------------------------
    def register(
        self,
        node_id: NodeId,
        handler: MessageHandler,
        cap: Optional[BandwidthCap] = None,
    ) -> None:
        """Attach an endpoint.  ``cap`` defaults to unlimited upload."""
        if node_id in self._endpoints:
            raise ValueError(f"node {node_id} is already registered")
        limiter = UploadLimiter(cap if cap is not None else BandwidthCap.unlimited())
        self._endpoints[node_id] = _Endpoint(handler, limiter)

    def is_registered(self, node_id: NodeId) -> bool:
        """Whether ``node_id`` has been registered on this network."""
        return node_id in self._endpoints

    def is_alive(self, node_id: NodeId) -> bool:
        """Whether ``node_id`` is registered and has not failed."""
        endpoint = self._endpoints.get(node_id)
        return endpoint is not None and endpoint.alive

    def fail_node(self, node_id: NodeId) -> None:
        """Crash a node: it stops sending and receiving immediately."""
        endpoint = self._endpoints.get(node_id)
        if endpoint is not None:
            endpoint.alive = False
            if self._observers is not None:
                now = self._simulator.now
                for observer in self._observers:
                    observer.on_node_failed(node_id, now)

    def recover_node(self, node_id: NodeId) -> None:
        """Bring a previously failed node back (its state is untouched)."""
        endpoint = self._endpoints.get(node_id)
        if endpoint is not None:
            endpoint.alive = True
            if self._observers is not None:
                now = self._simulator.now
                for observer in self._observers:
                    observer.on_node_recovered(node_id, now)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def add_observer(self, observer: Any) -> None:
        """Register a transport observer (see
        :class:`repro.validation.observers.TransportObserver` for the edge
        methods and their exact firing points)."""
        if self._observers is None:
            self._observers = []
        self._observers.append(observer)

    def limiter(self, node_id: NodeId) -> UploadLimiter:
        """The upload limiter of ``node_id`` (for inspection in experiments)."""
        return self._endpoints[node_id].limiter

    # ------------------------------------------------------------------
    # Routing (the shard and socket seam)
    # ------------------------------------------------------------------
    def set_router(self, router: Optional[DatagramRouter]) -> None:
        """Install (or, with ``None``, remove) a delivery router."""
        self._router = router

    def schedule_delivery(self, message: Message, deliver_time: float) -> None:
        """Schedule a routed datagram's delivery at absolute ``deliver_time``.

        Called by routers for locally owned receivers and by the shard
        runner when unpacking a window's inbound batch.  The time is applied
        verbatim so a delivery crossing a shard boundary lands at the bit-
        identical instant the scalar run would have used.
        """
        self._simulator.schedule_fire_and_forget_at(deliver_time, self._deliver, message)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, message: Message) -> bool:
        """Send ``message`` from its sender to its receiver.

        Returns ``True`` if the datagram was accepted by the sender's upload
        limiter (it may still be lost in flight or arrive at a dead node),
        ``False`` if it was dropped locally (dead sender or congestion).
        """
        return self.send_many((message,)) == 1

    def send_many(self, messages: Sequence[Message]) -> int:
        """Send a same-sender burst offered at the current instant.

        The one send pipeline: each datagram in order goes through the
        sender's upload limiter, the loss model and the latency model (RNG
        draws and delivery events are ordered as if sent one by one) and
        fires its observer edges; the sender endpoint, its liveness, its
        traffic cell and the clock are resolved once for the burst.

        Returns the number of datagrams accepted by the upload limiter;
        raises :class:`ValueError`, before anything is sent, on mixed senders.
        """
        if not messages:
            return 0
        sender = messages[0].sender
        for message in messages:
            if message.sender != sender:
                raise ValueError(
                    f"send_many requires a single sender, got {message.sender!r} "
                    f"after {sender!r}"
                )
        observers = self._observers
        now = self._simulator.now
        endpoint = self._endpoints.get(sender)
        if endpoint is None or not endpoint.alive:
            if observers is not None:
                for message in messages:
                    for observer in observers:
                        observer.on_send_blocked(message, now)
            return 0
        stats = self.stats
        # The sender's NodeTraffic cell, updated in place per accepted datagram.
        traffic = stats._per_node[sender]
        enqueue = endpoint.limiter.enqueue
        is_lost = self._loss.is_lost
        latency_sample = self._latency.sample
        router = self._router
        # Deliveries are scheduled by the million and never cancelled:
        # fire-and-forget scheduling skips the per-event handle allocation.
        schedule = self._simulator.schedule_fire_and_forget
        deliver = self._deliver
        accepted = 0
        for message in messages:
            size = message.size_bytes
            finish_time = enqueue(size, now)
            if finish_time is None:
                stats.record_congestion_drop(sender, message.kind, size)
                if observers is not None:
                    for observer in observers:
                        observer.on_congestion_drop(message, now)
                continue
            accepted += 1
            traffic.bytes_sent += size
            # The sender's send count names the datagram (``Message.seq``).
            seq = traffic.messages_sent + 1
            traffic.messages_sent = seq
            stamp_seq(message, seq)
            traffic.sent_bytes_by_kind[message.kind] += size
            if observers is not None:
                for observer in observers:
                    observer.on_send_accepted(message, now, finish_time)
            if is_lost(message):
                stats.record_in_flight_loss(sender, message.kind, size)
                if observers is not None:
                    for observer in observers:
                        observer.on_in_flight_loss(message, now)
                continue
            delay = (finish_time - now) + latency_sample(sender, message.receiver)
            if router is not None:
                # ``now`` is the clock value schedule_fire_and_forget would
                # add ``delay`` to, so the router sees the exact instant.
                router.dispatch(message, now + delay)
            else:
                schedule(delay, deliver, message)
        return accepted

    def _deliver(self, message: Message) -> None:
        receiver = message.receiver
        endpoint = self._endpoints.get(receiver)
        if endpoint is None or not endpoint.alive:
            if self._observers is not None:
                for observer in self._observers:
                    observer.on_delivery_dropped(message, self._simulator.now)
            return
        traffic = self.stats._per_node[receiver]
        size = message.size_bytes
        traffic.bytes_received += size
        traffic.messages_received += 1
        traffic.received_bytes_by_kind[message.kind] += size
        if self._observers is not None:
            # Observers fire before the handler: anything the handler sends
            # in reaction (e.g. a SERVE answering this REQUEST) must observe
            # the delivery that caused it as already having happened.
            for observer in self._observers:
                observer.on_delivered(message, self._simulator.now)
        endpoint.handler(message)
