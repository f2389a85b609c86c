"""The UDP network at its two boundaries: the socket and the shared pipeline.

A socket is untrusted input — whatever arrives must be counted and dropped,
never raised inside the asyncio callback (which would close the node's
transport) — and the sender side is :class:`~repro.network.transport.Network`'s
own ``send``/``send_many``, so the unobserved batch path must leave the same
state as the observed per-datagram one.
"""

import random
import socket

from repro.core.session import session_horizon
from repro.network.bandwidth import BandwidthCap
from repro.network.latency import ConstantLatency
from repro.network.loss import NoLoss, UniformLoss
from repro.network.message import Message
from repro.network.transport import Network
from repro.realnet.codec import encode_message
from repro.realnet.host import AsyncioHost
from repro.realnet.net import UdpNetwork
from repro.realnet.session import RealNetConfig, RealNetSession
from repro.simulation.engine import Simulator
from repro.telemetry.recorder import TraceRecorder
from repro.telemetry.schema import TraceWriter, iter_events, validate_trace
from repro.validation.observers import TransportObserver

from tests.realnet.conftest import (
    SMOKE_TIME_SCALE,
    realnet_session_config,
    retired_datagrams,
)

KIND_OFFSET = 21  # the fixed header; the kind tag starts right after it


def _hostile_datagrams():
    """Nine datagrams node 1's socket must refuse, one defect each."""
    good = encode_message(Message(sender=0, receiver=1, kind="xy", size_bytes=64))
    bad_magic = b"XX" + good[2:]
    bad_version = good[:2] + bytes([99]) + good[3:]
    unknown_tag = good[:3] + bytes([200]) + good[4:]
    bad_utf8 = good[:KIND_OFFSET] + b"\xff\xfe" + good[KIND_OFFSET + 2:]
    for_node_0 = encode_message(Message(sender=1, receiver=0, kind="xy", size_bytes=64))
    return [
        good[:5], bad_magic, bad_version, unknown_tag, bad_utf8, for_node_0,
        *retired_datagrams().values(),
    ]


class TestHostileInput:
    def test_malformed_and_misaddressed_datagrams_are_counted_and_dropped(self):
        host = AsyncioHost(seed=1, time_scale=SMOKE_TIME_SCALE)
        network = UdpNetwork(host, ConstantLatency(0.0), NoLoss())
        received = []
        network.register(0, received.append)
        network.register(1, received.append)
        good = Message(sender=0, receiver=1, kind="xy", size_bytes=64)

        def spray():
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as outsider:
                for data in _hostile_datagrams():
                    outsider.sendto(data, network.address(1))
                # A well-formed datagram afterwards: the endpoint survived.
                outsider.sendto(encode_message(good), network.address(1))

        host.schedule(0.05, spray)
        host.run(until=0.5)
        assert network.decode_errors == 9
        assert received == [good]
        assert network.datagrams_received == 1

    def test_garbage_sprayed_at_a_live_session_does_not_end_it(self):
        session = RealNetSession(
            realnet_session_config(num_nodes=6, num_windows=2),
            RealNetConfig(time_scale=SMOKE_TIME_SCALE),
        )
        session.build()
        host, network = session.simulator, session.network
        horizon = session_horizon(session.config)
        period = 0.25
        rng = random.Random(5)
        sprayed = []

        def spray():
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as outsider:
                for node_id in range(6):
                    data = rng.randbytes(rng.randrange(1, 200))
                    outsider.sendto(data, network.address(node_id))
                    sprayed.append(data)
            # The last burst goes out a full period before the horizon, so
            # every sprayed datagram is read (and counted) before the loop
            # stops and the endpoints close.
            if host.now + 2 * period <= horizon:
                host.schedule(period, spray)

        host.schedule(period, spray)
        result = session.run()
        assert sprayed
        assert network.decode_errors == len(sprayed)
        assert result.delivery_ratio() >= 0.9


class _CountingObserver(TransportObserver):
    def __init__(self):
        self.accepted = 0
        self.dropped = []

    def on_send_accepted(self, message, now, finish_time):
        self.accepted += 1

    def on_delivery_dropped(self, message, now):
        self.dropped.append(message)


class TestUnregisteredReceiver:
    @staticmethod
    def _send_to_nobody(host, network):
        network.register(0, lambda message: None)
        observer = _CountingObserver()
        network.add_observer(observer)
        stray = Message(sender=0, receiver=99, kind="xy", size_bytes=64)
        host.schedule(0.05, network.send, stray)
        host.run(until=0.5)
        return observer.accepted, observer.dropped, stray

    def test_the_datagram_meets_the_simulated_fate(self):
        simulator = Simulator(seed=1)
        simulated = Network(simulator, ConstantLatency(0.01), NoLoss())
        accepted, dropped, stray = self._send_to_nobody(simulator, simulated)
        assert (accepted, dropped) == (1, [stray])

        host = AsyncioHost(seed=1, time_scale=SMOKE_TIME_SCALE)
        network = UdpNetwork(host, ConstantLatency(0.01), NoLoss())
        accepted, dropped, stray = self._send_to_nobody(host, network)
        assert (accepted, dropped) == (1, [stray])
        assert network.datagrams_sent == 0


class _FateObserver(TransportObserver):
    def __init__(self):
        self.fates = []

    def on_in_flight_loss(self, message, now):
        self.fates.append(("loss", message))

    def on_delivered(self, message, now):
        self.fates.append(("delivered", message))

    def on_delivery_dropped(self, message, now):
        self.fates.append(("dropped", message))


class TestClosedSenderTransport:
    def test_the_accepted_datagram_is_lost_in_flight(self, tmp_path):
        host = AsyncioHost(seed=1, time_scale=SMOKE_TIME_SCALE)
        network = UdpNetwork(host, ConstantLatency(0.01), NoLoss())
        for node_id in range(2):
            network.register(node_id, lambda message: None)
        # Runs after the network's own startup hook opened the endpoints.
        host.add_startup_hook(network.close)
        observer = _FateObserver()
        network.add_observer(observer)
        path = tmp_path / "closed.jsonl"
        message = Message(sender=0, receiver=1, kind="serve", size_bytes=500)
        with TraceWriter(path) as writer:
            network.add_observer(TraceRecorder(writer))
            host.schedule(0.05, network.send, message)
            host.run(until=0.5)

        assert observer.fates == [("loss", message)]
        stats = network.stats.raw()
        assert (stats[0].messages_sent, stats[0].messages_lost_in_flight) == (1, 1)
        assert stats[0].bytes_lost_in_flight == 500
        assert stats[1].messages_received == 0
        assert network.datagrams_sent == 0
        _, events = validate_trace(path)
        kinds = [event["k"] for event in iter_events(path)]
        assert (events, kinds) == (2, ["send", "loss"])


class TestSharedPipeline:
    @staticmethod
    def _burst_through(observer):
        host = AsyncioHost(seed=9, time_scale=SMOKE_TIME_SCALE)
        network = UdpNetwork(
            host, ConstantLatency(0.01), UniformLoss(host.rng, 0.3, per_sender=True)
        )
        # 12 ms per 1500 B datagram against a 60 ms backlog: the burst
        # overflows it, so all three fates (sent, lost, dropped) occur.
        cap = BandwidthCap(rate_bps=1_000_000.0, max_backlog_seconds=0.06)
        for node_id in range(3):
            network.register(node_id, lambda message: None, cap)
        if observer is not None:
            network.add_observer(observer)
        burst = [
            Message(sender=0, receiver=1 + index % 2, kind="serve", size_bytes=900 + 100 * (index % 7))
            for index in range(16)
        ]
        accepted = network.send_many(burst)
        limiter = network.limiter(0)
        state = (
            accepted,
            dict(network.stats.raw()),
            (limiter.bytes_accepted, limiter.bytes_dropped),
            (limiter.messages_accepted, limiter.messages_dropped),
            host.pending_events,
        )
        host.run(until=0.01)  # opens and closes the endpoints
        return state

    def test_send_many_leaves_the_same_state_with_and_without_an_observer(self):
        observer = _CountingObserver()
        observed = self._burst_through(observer)
        unobserved = self._burst_through(None)
        assert observed == unobserved
        accepted, stats = observed[0], observed[1]
        assert observer.accepted == accepted == stats[0].messages_sent
        assert stats[0].messages_dropped_congestion > 0
        assert stats[0].messages_lost_in_flight > 0
