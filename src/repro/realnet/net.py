"""The UDP transport: real sockets as the delivery leg of the simulated network.

:class:`UdpNetwork` *is* a :class:`repro.network.transport.Network` —
registration, liveness, observers, ``stats`` and the whole sender-side
pipeline (upload limiter → traffic stats → in-flight loss → propagation
latency, with an observer edge at every fate) are inherited, not restated.
It adds only what is real: one bound UDP socket per node, the asyncio
endpoints' ``open``/``close``, and the two ends of the wire.  It installs
itself as the network's :class:`~repro.network.transport.DatagramRouter`,
the same seam the sharded runner uses, so the three routers read *local
schedule / shard batch /* ``sendto``:

* ``dispatch(message, deliver_time)`` — called by ``Network.send`` for every
  accepted, un-lost datagram — schedules the ``sendto`` on the host at the
  *virtual* instant the simulator would have delivered the datagram; the
  real localhost transit (~0.1 ms) rides on top;
* a received datagram is decoded and handed to ``Network._deliver``, which
  owns the dead-receiver drop, the receive stats and the delivery edges.

Loss and latency models should draw from per-sender RNG streams
(``per_sender=True``) so real-time interleaving of sends across nodes
cannot perturb anybody's draws.

What stays genuinely *real*: the payload bytes cross the kernel (padded to
their modeled size, see :mod:`repro.realnet.codec`), delivery order and
socket backpressure are the operating system's, and a dropped datagram is
gone — there is no global event queue to fall back on.  A socket is also
untrusted input: a datagram that does not decode, that names a receiver
other than the socket's owner, whose kind the receiver has no handler for,
or whose payload is not its kind's (:data:`repro.core.messages.KIND_PAYLOAD`)
is counted in ``decode_errors`` and dropped.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional

from repro.core.messages import KIND_PAYLOAD
from repro.network.bandwidth import BandwidthCap
from repro.network.latency import LatencyModel
from repro.network.loss import LossModel
from repro.network.message import Message, NodeId
from repro.network.transport import DatagramRouter, MessageHandler, Network

from repro.realnet.codec import decode_message, encode_message
from repro.realnet.errors import CodecError, RealNetStateError
from repro.realnet.host import AsyncioHost
from repro.realnet.ports import Address, PortPlan, address_of, bind_node_socket


class _NodeProtocol(asyncio.DatagramProtocol):
    """Datagram receiver of one node: hands the raw bytes to the network."""

    def __init__(self, network: "UdpNetwork", node_id: NodeId) -> None:
        self._network = network
        self._node_id = node_id

    def datagram_received(self, data: bytes, addr: Address) -> None:
        """Decode one datagram and run the delivery pipeline."""
        self._network._on_datagram(self._node_id, data)


class _NodeSocket:
    """One node's bound socket, its address, and (once open) its transport."""

    __slots__ = ("sock", "address", "transport")

    def __init__(self, sock) -> None:
        self.sock = sock
        self.address: Address = address_of(sock)
        self.transport: Optional[asyncio.DatagramTransport] = None


class UdpNetwork(Network, DatagramRouter):
    """A :class:`Network` whose deliveries cross real asyncio UDP sockets.

    Parameters
    ----------
    host:
        The :class:`~repro.realnet.host.AsyncioHost` providing virtual time
        and timer scheduling.  The network registers its endpoint open and
        close coroutines as the host's startup/shutdown hooks.
    latency_model / loss_model:
        Substrate physics, applied sender-side by the inherited pipeline.
    plan:
        Port allocation policy; defaults to kernel-assigned loopback ports.
    """

    def __init__(
        self,
        host: AsyncioHost,
        latency_model: LatencyModel,
        loss_model: LossModel,
        plan: Optional[PortPlan] = None,
    ) -> None:
        super().__init__(host, latency_model, loss_model)
        self._plan = plan if plan is not None else PortPlan()
        self._sockets: Dict[NodeId, _NodeSocket] = {}
        self._open = False
        self.datagrams_sent = 0
        self.datagrams_received = 0
        self.decode_errors = 0
        self.set_router(self)
        host.add_startup_hook(self.open)
        host.add_shutdown_hook(self.close)

    def register(
        self,
        node_id: NodeId,
        handler: MessageHandler,
        cap: Optional[BandwidthCap] = None,
    ) -> None:
        """Attach an endpoint and bind the node's UDP socket immediately."""
        if self._open:
            raise RealNetStateError("cannot register nodes after endpoints opened")
        super().register(node_id, handler, cap)
        self._sockets[node_id] = _NodeSocket(bind_node_socket(self._plan, node_id))

    def address(self, node_id: NodeId) -> Address:
        """The ``(host, port)`` a node's socket is bound to."""
        return self._sockets[node_id].address

    # ------------------------------------------------------------------
    # Endpoint lifecycle (host startup/shutdown hooks)
    # ------------------------------------------------------------------
    async def open(self) -> None:
        """Open one datagram endpoint per registered node (idempotent)."""
        if self._open:
            return
        loop = asyncio.get_running_loop()
        for node_id, node in self._sockets.items():
            node.transport, _ = await loop.create_datagram_endpoint(
                lambda nid=node_id: _NodeProtocol(self, nid), sock=node.sock
            )
        self._open = True

    async def close(self) -> None:
        """Close every endpoint's transport and socket (idempotent).

        Until then a failed node's socket stays open, so datagrams already
        committed to the wire drain into the dead endpoint and are observed
        as ``on_delivery_dropped``, as on the simulated transport.
        """
        for node in self._sockets.values():
            if node.transport is not None:
                node.transport.close()
                node.transport = None
        self._open = False
        # Yield once so transport close callbacks run before the loop dies.
        await asyncio.sleep(0)

    # ------------------------------------------------------------------
    # The two ends of the wire
    # ------------------------------------------------------------------
    def dispatch(self, message: Message, deliver_time: float) -> None:
        """Put ``message`` on the wire at virtual ``deliver_time`` (the router seam)."""
        self._simulator.schedule_fire_and_forget_at(deliver_time, self._transmit, message)

    def _transmit(self, message: Message) -> None:
        sender = self._sockets.get(message.sender)
        receiver = self._sockets.get(message.receiver)
        if receiver is None:
            # An unregistered receiver: the same observed drop as in simulation.
            self._deliver(message)
            return
        if sender is None or sender.transport is None:
            # The limiter accepted it but no socket can send it: lost in flight.
            self.stats.record_in_flight_loss(message.sender, message.kind, message.size_bytes)
            if self._observers is not None:
                now = self._simulator.now
                for observer in self._observers:
                    observer.on_in_flight_loss(message, now)
            return
        sender.transport.sendto(encode_message(message), receiver.address)
        self.datagrams_sent += 1

    def _on_datagram(self, node_id: NodeId, data: bytes) -> None:
        try:
            message = decode_message(data)
        except CodecError:
            self.decode_errors += 1
            return
        if message.receiver != node_id:
            # Delivery keys on ``message.receiver``: without this a crafted
            # datagram could reach any node's handler through any port.
            self.decode_errors += 1
            return
        kind = message.kind
        payload_type = KIND_PAYLOAD.get(kind)
        if kind not in self._endpoints[node_id].handlers or (
            payload_type is not None and type(message.payload) is not payload_type
        ):
            # Well-formed but meaningless to the receiver: a handler would
            # raise (an unknown kind) or misread the payload.
            self.decode_errors += 1
            return
        self.datagrams_received += 1
        self._deliver(message)


__all__ = ["UdpNetwork"]
