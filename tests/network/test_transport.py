"""Unit tests for the network transport."""

import pytest

from repro.network.bandwidth import BandwidthCap
from repro.network.latency import ConstantLatency, PerNodeQualityLatency
from repro.network.loss import UniformLoss
from repro.network.message import Message
from repro.network.transport import DatagramRouter, Network, NetworkConfig
from repro.simulation.engine import Simulator
from repro.simulation.rng import RngRegistry
from repro.validation.observers import TransportObserver


class Recorder:
    """Minimal endpoint: records (message, time) pairs."""

    def __init__(self, simulator):
        self.simulator = simulator
        self.received = []

    def __call__(self, message):
        self.received.append((message, self.simulator.now))


def build_network(simulator, latency=None, loss=None):
    return Network(simulator, latency_model=latency or ConstantLatency(0.05), loss_model=loss)


class TestRegistration:
    def test_register_and_send(self, simulator):
        network = build_network(simulator)
        receiver = Recorder(simulator)
        network.register(0, lambda m: None)
        network.register(1, receiver)

        accepted = network.send(Message(sender=0, receiver=1, kind="propose", size_bytes=100))
        assert accepted
        simulator.run_until_idle()
        assert len(receiver.received) == 1

    def test_double_registration_rejected(self, simulator):
        network = build_network(simulator)
        network.register(0, lambda m: None)
        with pytest.raises(ValueError):
            network.register(0, lambda m: None)

    def test_unregistered_node_sends_nothing(self, simulator):
        network = build_network(simulator)
        network.register(0, lambda m: None)
        assert not network.send(Message(sender=42, receiver=0, kind="propose", size_bytes=10))
        assert simulator.pending_events == 0

    def test_a_handler_table_gets_each_kind_to_its_handler(self, simulator):
        network = build_network(simulator)
        proposals, serves = Recorder(simulator), Recorder(simulator)
        network.register(0, lambda m: None)
        network.register(1, {"propose": proposals, "serve": serves})
        network.send(Message(sender=0, receiver=1, kind="serve", size_bytes=10))
        network.send(Message(sender=0, receiver=1, kind="propose", size_bytes=10))
        simulator.run_until_idle()
        assert [m.kind for m, _ in proposals.received] == ["propose"]
        assert [m.kind for m, _ in serves.received] == ["serve"]

    def test_a_kind_without_a_handler_raises_naming_node_and_kind(self, simulator):
        network = build_network(simulator)
        network.register(0, lambda m: None)
        network.register(1, {"propose": lambda m: None})
        network.send(Message(sender=0, receiver=1, kind="bogus", size_bytes=10))
        with pytest.raises(ValueError, match="node 1: unknown message kind 'bogus'"):
            simulator.run_until_idle()


class TestDeliveryTiming:
    def test_latency_applied(self, simulator):
        network = build_network(simulator, latency=ConstantLatency(0.2))
        receiver = Recorder(simulator)
        network.register(0, lambda m: None)
        network.register(1, receiver)
        network.send(Message(sender=0, receiver=1, kind="propose", size_bytes=100))
        simulator.run_until_idle()
        __, time = receiver.received[0]
        assert time == pytest.approx(0.2)

    def test_serialization_delay_added_for_capped_sender(self, simulator):
        network = build_network(simulator, latency=ConstantLatency(0.1))
        receiver = Recorder(simulator)
        # 8000 bps: a 1000-byte message takes 1 s to serialize.
        network.register(0, lambda m: None, cap=BandwidthCap(rate_bps=8000.0))
        network.register(1, receiver)
        network.send(Message(sender=0, receiver=1, kind="serve", size_bytes=1000))
        simulator.run_until_idle()
        __, time = receiver.received[0]
        assert time == pytest.approx(1.1)

    def test_messages_queue_behind_each_other(self, simulator):
        network = build_network(simulator, latency=ConstantLatency(0.0))
        receiver = Recorder(simulator)
        network.register(0, lambda m: None, cap=BandwidthCap(rate_bps=8000.0))
        network.register(1, receiver)
        for _ in range(3):
            network.send(Message(sender=0, receiver=1, kind="serve", size_bytes=1000))
        simulator.run_until_idle()
        times = [time for _, time in receiver.received]
        assert times == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]


class TestCongestionAndLoss:
    def test_backlog_overflow_is_counted_as_congestion_drop(self, simulator):
        network = build_network(simulator)
        network.register(0, lambda m: None, cap=BandwidthCap(rate_bps=8000.0, max_backlog_seconds=1.0))
        network.register(1, lambda m: None)
        sent = [
            network.send(Message(sender=0, receiver=1, kind="serve", size_bytes=900))
            for _ in range(3)
        ]
        assert sent == [True, False, False]
        assert network.stats.total_congestion_drops() == 2

    def test_in_flight_loss_consumes_sender_bandwidth(self, simulator):
        rng = RngRegistry(1)
        network = build_network(simulator, loss=UniformLoss(rng, probability=1.0))
        receiver = Recorder(simulator)
        network.register(0, lambda m: None, cap=BandwidthCap(rate_bps=8000.0))
        network.register(1, receiver)
        accepted = network.send(Message(sender=0, receiver=1, kind="serve", size_bytes=1000))
        simulator.run_until_idle()
        assert accepted
        assert receiver.received == []
        assert network.stats.node(0).bytes_sent == 1000
        assert network.stats.total_in_flight_losses() == 1


class TestFailures:
    def test_failed_sender_cannot_send(self, simulator):
        network = build_network(simulator)
        receiver = Recorder(simulator)
        network.register(0, lambda m: None)
        network.register(1, receiver)
        network.fail_node(0)
        assert not network.send(Message(sender=0, receiver=1, kind="propose", size_bytes=10))
        simulator.run_until_idle()
        assert receiver.received == []

    def test_failed_receiver_gets_nothing(self, simulator):
        network = build_network(simulator)
        receiver = Recorder(simulator)
        network.register(0, lambda m: None)
        network.register(1, receiver)
        network.send(Message(sender=0, receiver=1, kind="propose", size_bytes=10))
        network.fail_node(1)
        simulator.run_until_idle()
        assert receiver.received == []

    def test_recovered_node_receives_again(self, simulator):
        network = build_network(simulator)
        receiver = Recorder(simulator)
        network.register(0, lambda m: None)
        network.register(1, receiver)
        network.fail_node(1)
        network.recover_node(1)
        network.send(Message(sender=0, receiver=1, kind="propose", size_bytes=10))
        simulator.run_until_idle()
        assert len(receiver.received) == 1


class TestNetworkConfig:
    def test_build_cap_uses_default_and_overrides(self):
        config = NetworkConfig(upload_cap_kbps=700.0, per_node_caps_kbps={5: 2000.0})
        assert config.build_cap(1).rate_bps == pytest.approx(700_000.0)
        assert config.build_cap(5).rate_bps == pytest.approx(2_000_000.0)

    def test_build_cap_none_is_unlimited(self):
        config = NetworkConfig(upload_cap_kbps=None)
        assert config.build_cap(1).rate_bps is None

    def test_build_latency_models(self):
        rng = RngRegistry(1)
        node_ids = list(range(5))
        for name in ("constant", "uniform", "lognormal", "per-node"):
            config = NetworkConfig(latency_model=name)
            model = config.build_latency(rng, node_ids)
            assert model.sample(0, 1) >= 0.0

    def test_build_latency_unknown_model_rejected(self):
        config = NetworkConfig(latency_model="warp-speed")
        with pytest.raises(ValueError):
            config.build_latency(RngRegistry(1), [0, 1])

    def test_build_loss(self):
        rng = RngRegistry(1)
        assert not NetworkConfig(random_loss=0.0).build_loss(rng).is_lost(
            Message(sender=0, receiver=1, kind="x", size_bytes=1)
        )
        lossy = NetworkConfig(random_loss=1.0).build_loss(rng)
        assert lossy.is_lost(Message(sender=0, receiver=1, kind="x", size_bytes=1))


class TestSendMany:
    """`send_many` must be indistinguishable from calling `send` per message
    in order: same limiter chain, same RNG draw order (loss then latency per
    message), same delivery times and stats."""

    @staticmethod
    def _build(seed):
        from repro.network.latency import PerNodeQualityLatency
        from repro.simulation.engine import Simulator

        simulator = Simulator(seed=seed)
        rng = RngRegistry(seed)
        network = Network(
            simulator,
            latency_model=PerNodeQualityLatency(rng, list(range(5)), base=0.05),
            loss_model=UniformLoss(rng, probability=0.2),
        )
        recorders = {}
        for node in range(5):
            recorder = Recorder(simulator)
            recorders[node] = recorder
            cap = BandwidthCap(rate_bps=700_000.0) if node == 0 else BandwidthCap.unlimited()
            network.register(node, recorder, cap=cap)
        return simulator, network, recorders

    @staticmethod
    def _burst():
        return [
            Message(sender=0, receiver=1 + (i % 4), kind="serve", size_bytes=400 + 37 * i)
            for i in range(30)
        ]

    @staticmethod
    def _trace(recorders):
        return {
            node: [(m.size_bytes, m.receiver, t) for m, t in recorder.received]
            for node, recorder in recorders.items()
        }

    def test_matches_sequential_send(self):
        sim_a, net_a, rec_a = self._build(seed=9)
        accepted_a = sum(net_a.send(m) for m in self._burst())
        sim_a.run_until_idle()

        sim_b, net_b, rec_b = self._build(seed=9)
        accepted_b = net_b.send_many(self._burst())
        sim_b.run_until_idle()

        assert accepted_b == accepted_a
        assert self._trace(rec_b) == self._trace(rec_a)
        assert net_b.stats.node(0).bytes_sent == net_a.stats.node(0).bytes_sent
        assert net_b.stats.total_in_flight_losses() == net_a.stats.total_in_flight_losses()

    def test_congestion_drops_match_sequential(self):
        def build(seed):
            from repro.simulation.engine import Simulator

            simulator = Simulator(seed=seed)
            network = build_network(simulator, latency=ConstantLatency(0.0))
            network.register(
                0, lambda m: None, cap=BandwidthCap(rate_bps=8000.0, max_backlog_seconds=1.0)
            )
            recorder = Recorder(simulator)
            network.register(1, recorder)
            return simulator, network, recorder

        burst = [Message(sender=0, receiver=1, kind="serve", size_bytes=600) for _ in range(4)]
        sim_a, net_a, rec_a = build(3)
        accepted_a = sum(net_a.send(m) for m in burst)
        sim_a.run_until_idle()
        sim_b, net_b, rec_b = build(3)
        accepted_b = net_b.send_many(burst)
        sim_b.run_until_idle()
        assert accepted_b == accepted_a == 1
        assert net_b.stats.total_congestion_drops() == net_a.stats.total_congestion_drops() == 3
        assert [t for _, t in rec_b.received] == [t for _, t in rec_a.received]

    def test_mixed_senders_rejected(self, simulator):
        network = build_network(simulator)
        network.register(0, lambda m: None)
        network.register(1, lambda m: None)
        with pytest.raises(ValueError, match="single sender"):
            network.send_many(
                [
                    Message(sender=0, receiver=1, kind="propose", size_bytes=10),
                    Message(sender=1, receiver=0, kind="propose", size_bytes=10),
                ]
            )

    def test_dead_sender_accepts_nothing(self, simulator):
        network = build_network(simulator)
        network.register(0, lambda m: None)
        network.register(1, lambda m: None)
        network.fail_node(0)
        burst = [Message(sender=0, receiver=1, kind="propose", size_bytes=10)]
        assert network.send_many(burst) == 0

    def test_empty_burst(self, simulator):
        network = build_network(simulator)
        assert network.send_many([]) == 0

    def test_observers_route_through_scalar_send(self, simulator):
        class Edges:
            def __init__(self):
                self.accepted = []

            def on_send_accepted(self, message, now, finish_time):
                self.accepted.append(message.receiver)

            def on_send_blocked(self, message, now):
                pass

            def on_congestion_drop(self, message, now):
                pass

            def on_in_flight_loss(self, message, now):
                pass

            def on_delivered(self, message, now):
                pass

            def on_delivery_dropped(self, message, now):
                pass

        network = build_network(simulator)
        network.register(0, lambda m: None)
        network.register(1, lambda m: None)
        network.register(2, lambda m: None)
        edges = Edges()
        network.add_observer(edges)
        burst = [
            Message(sender=0, receiver=receiver, kind="propose", size_bytes=10)
            for receiver in (1, 2)
        ]
        assert network.send_many(burst) == 2
        assert edges.accepted == [1, 2]  # one edge per logical datagram

    def test_mixed_senders_rejected_when_observed(self, simulator):
        """One sender rule: an observer does not turn the error into a silent
        datagram-by-datagram send (it did before the pipeline was one body)."""

        class Edges(TransportObserver):
            def __init__(self):
                self.accepted = []

            def on_send_accepted(self, message, now, finish_time):
                self.accepted.append(message)

        network = build_network(simulator)
        network.register(0, lambda m: None)
        network.register(1, lambda m: None)
        edges = Edges()
        network.add_observer(edges)
        with pytest.raises(ValueError, match="single sender"):
            network.send_many(
                [
                    Message(sender=0, receiver=1, kind="propose", size_bytes=10),
                    Message(sender=1, receiver=0, kind="propose", size_bytes=10),
                ]
            )
        assert edges.accepted == []  # rejected before anything is sent
        assert simulator.pending_events == 0


class TestOneSendPipeline:
    """`Network.send_many` is the only send body: observed, unobserved and
    datagram-by-datagram sends of one burst are the same run — same delivery
    events, same RNG stream positions, same counters — whether draws are
    shared or per sender, and whether or not a router takes the deliveries."""

    NODES = list(range(6))

    class Router(DatagramRouter):
        def __init__(self, network):
            self.network = network
            self.dispatched = []

        def dispatch(self, message, deliver_time):
            self.dispatched.append((message.receiver, deliver_time))
            self.network.schedule_delivery(message, deliver_time)

    class Edges(TransportObserver):
        def __init__(self):
            self.seen = []

        def on_send_accepted(self, message, now, finish_time):
            self.seen.append(("accepted", message.receiver, finish_time))

        def on_congestion_drop(self, message, now):
            self.seen.append(("congestion", message.receiver))

        def on_in_flight_loss(self, message, now):
            self.seen.append(("lost", message.receiver))

    def _run(self, mode, per_sender, routed):
        simulator = Simulator(seed=11)
        rng = simulator.rng
        network = Network(
            simulator,
            latency_model=PerNodeQualityLatency(rng, self.NODES, base=0.05, per_sender=per_sender),
            loss_model=UniformLoss(rng, probability=0.25, per_sender=per_sender),
        )
        for node in self.NODES:
            # A tight cap on the sender: the burst overflows its 0.15 s backlog.
            cap = BandwidthCap(rate_bps=700_000.0, max_backlog_seconds=0.15) if node == 0 else None
            network.register(node, lambda message: None, cap=cap)
        router = self.Router(network) if routed else None
        network.set_router(router)
        edges = self.Edges() if mode == "observed" else None
        if edges is not None:
            network.add_observer(edges)
        burst = [
            Message(sender=0, receiver=1 + (i % 5), kind="serve", size_bytes=350 + 41 * i)
            for i in range(40)
        ]
        if mode == "one-by-one":
            accepted = sum(network.send(message) for message in burst)
        else:
            accepted = network.send_many(burst)
        suffix = "/node-0" if per_sender else ""
        limiter = network.limiter(0)
        cell = network.stats.node(0)
        return {
            "accepted": accepted,
            "deliveries": sorted(
                (event.time, event.sequence, event.args[0].receiver)
                for event in simulator._heap
            ),
            "dispatched": router.dispatched if routed else None,
            "loss_stream": rng.stream("loss/uniform" + suffix).getstate(),
            "jitter_stream": rng.stream("latency/per-node/jitter" + suffix).getstate(),
            "traffic": (
                cell.bytes_sent, cell.messages_sent, dict(cell.sent_bytes_by_kind),
                cell.messages_dropped_congestion, cell.messages_lost_in_flight,
            ),
            "limiter": (
                limiter.bytes_accepted, limiter.messages_accepted,
                limiter.bytes_dropped, limiter.messages_dropped, limiter._busy_until,
            ),
        }, edges

    @pytest.mark.parametrize("routed", [False, True], ids=["local", "routed"])
    @pytest.mark.parametrize("per_sender", [False, True], ids=["shared-stream", "per-sender"])
    def test_observed_unobserved_and_sequential_sends_agree(self, per_sender, routed):
        unobserved, _ = self._run("unobserved", per_sender, routed)
        observed, edges = self._run("observed", per_sender, routed)
        sequential, _ = self._run("one-by-one", per_sender, routed)
        assert observed == unobserved == sequential
        # The burst really exercises all three fates, and the edges saw them.
        fates = [edge[0] for edge in edges.seen]
        assert fates.count("accepted") == unobserved["accepted"] < 40
        assert "congestion" in fates and "lost" in fates
        assert len(unobserved["deliveries"]) == fates.count("accepted") - fates.count("lost")
