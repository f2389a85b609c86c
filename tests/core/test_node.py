"""Unit tests for the gossip node engine (Algorithm 1)."""

import pytest

from repro.core.config import GossipConfig
from repro.core.messages import FEED_ME, PROPOSE, REQUEST, SERVE
from repro.core.node import GossipNode
from repro.membership.directory import MembershipDirectory
from repro.membership.partners import INFINITE
from repro.network.latency import ConstantLatency
from repro.network.loss import LossModel
from repro.network.message import Message
from repro.network.transport import Network
from repro.simulation.engine import Simulator
from repro.streaming.schedule import StreamConfig, StreamSchedule
from repro.validation.observers import TransportObserver


class ScriptedLoss(LossModel):
    """Loses the first ``count`` messages of the given kind, then nothing."""

    def __init__(self, kind: str, count: int) -> None:
        self.kind = kind
        self.remaining = count

    def is_lost(self, message: Message) -> bool:
        if message.kind == self.kind and self.remaining > 0:
            self.remaining -= 1
            return True
        return False


class _SendLog(TransportObserver):
    """Every accepted datagram of one ``kind``."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.messages = []

    def on_send_accepted(self, message, now, finish_time):
        if message.kind == self.kind:
            self.messages.append(message)


class _RequestLog(_SendLog):
    """Every accepted REQUEST as ``(sender, receiver, packet ids)``."""

    def __init__(self) -> None:
        super().__init__(REQUEST)

    @property
    def sent(self):
        return [(m.sender, m.receiver, m.payload.packet_ids) for m in self.messages]


class Harness:
    """A tiny fully-wired system for protocol-level tests."""

    def __init__(self, num_nodes=5, loss_model=None, **config_overrides):
        defaults = dict(
            fanout=2,
            refresh_every=1,
            retransmit_timeout=0.5,
            max_request_attempts=2,
            source_fanout=2,
        )
        defaults.update(config_overrides)
        self.config = GossipConfig(**defaults)
        self.simulator = Simulator(seed=3)
        self.schedule = StreamSchedule(
            StreamConfig(
                rate_kbps=600.0,
                payload_bytes=1000,
                source_packets_per_window=5,
                fec_packets_per_window=1,
                num_windows=2,
            )
        )
        self.directory = MembershipDirectory(detection_delay=1.0)
        self.directory.add_all(range(num_nodes))
        self.network = Network(
            self.simulator, latency_model=ConstantLatency(0.01), loss_model=loss_model
        )
        self.deliveries = []
        self.nodes = {}
        for node_id in range(num_nodes):
            node = GossipNode(
                node_id=node_id,
                simulator=self.simulator,
                network=self.network,
                directory=self.directory,
                schedule=self.schedule,
                config=self.config,
                delivery_listener=lambda n, p, t: self.deliveries.append((n, p, t)),
                is_source=(node_id == 0),
            )
            self.nodes[node_id] = node
            self.network.register(node_id, node.on_message)

    def start_all(self):
        for node in self.nodes.values():
            node.start()


class TestSourcePublish:
    def test_publish_delivers_locally_and_proposes(self):
        harness = Harness()
        source = harness.nodes[0]
        source.publish(harness.schedule.packet(0))
        assert source.state.has_delivered(0)
        assert source.stats.proposes_sent == harness.config.source_fanout
        assert (0, 0, 0.0) in harness.deliveries

    def test_publish_targets_follow_refresh_policy(self):
        harness = Harness(num_nodes=10, refresh_every=INFINITE, source_fanout=3)
        source = harness.nodes[0]
        source.publish(harness.schedule.packet(0))
        first_targets = set(source._source_targets)
        # Publish many more packets: with X = infinity the target set never changes.
        for packet_id in range(1, 8):
            source.publish(harness.schedule.packet(packet_id))
        assert set(source._source_targets) == first_targets

    def test_dead_source_does_not_publish(self):
        harness = Harness()
        source = harness.nodes[0]
        source.fail()
        source.publish(harness.schedule.packet(0))
        assert not source.state.has_delivered(0)


class TestDelivery:
    def test_deliver_records_time(self):
        harness = Harness()
        node = harness.nodes[1]
        node.deliver(1, 2.5)
        assert node.state.delivered == {1: 2.5}
        assert harness.deliveries == [(1, 1, 2.5)]

    def test_duplicate_delivery_is_rejected(self):
        harness = Harness()
        node = harness.nodes[1]
        node.deliver(1, 2.5)
        node.deliver(1, 3.5)
        assert node.state.delivered == {1: 2.5}
        assert harness.deliveries == [(1, 1, 2.5)]


class TestThreePhaseExchange:
    def test_propose_request_serve_delivers_packet(self):
        harness = Harness()
        source = harness.nodes[0]
        source.publish(harness.schedule.packet(0))
        harness.simulator.run_until_idle()
        receivers_with_packet = [
            node_id
            for node_id, node in harness.nodes.items()
            if node_id != 0 and node.state.has_delivered(0)
        ]
        assert len(receivers_with_packet) == harness.config.source_fanout

    def test_full_dissemination_with_gossip_rounds(self):
        harness = Harness(num_nodes=8, fanout=3)
        harness.start_all()
        source = harness.nodes[0]
        source.publish(harness.schedule.packet(0))
        harness.simulator.run(until=5.0)
        delivered = [n for n, node in harness.nodes.items() if node.state.has_delivered(0)]
        assert len(delivered) == 8

    def test_duplicate_proposal_not_requested_twice(self):
        harness = Harness(num_nodes=4)
        node = harness.nodes[1]
        # Two different proposers advertise the same packet id.
        node.on_message(Message(2, 1, PROPOSE, 48, harness_propose((5,))))
        node.on_message(Message(3, 1, PROPOSE, 48, harness_propose((5,))))
        assert node.stats.requests_sent == 1
        assert node.state.request_attempts == {5: 1}

    def test_an_id_advertised_twice_in_one_propose_is_requested_twice(self):
        harness = Harness(num_nodes=4)
        requests = _RequestLog()
        harness.network.add_observer(requests)
        node = harness.nodes[1]
        node.on_message(Message(2, 1, PROPOSE, 56, harness_propose((5, 5))))
        assert requests.sent == [(1, 2, (5, 5))]
        assert node.state.request_attempts == {5: 2}

    def test_propose_requests_only_the_missing_ids(self):
        harness = Harness(num_nodes=4)
        requests = _RequestLog()
        harness.network.add_observer(requests)
        node = harness.nodes[1]
        node.deliver(1, 0.0)
        node.deliver(3, 0.0)
        node.on_message(Message(2, 1, PROPOSE, 48, harness_propose((1, 2, 3, 4))))
        assert requests.sent == [(1, 2, (2, 4))]
        assert node.state.request_attempts == {2: 1, 4: 1}

    def test_a_proposal_of_delivered_ids_requests_nothing(self):
        harness = Harness(num_nodes=4)
        requests = _RequestLog()
        harness.network.add_observer(requests)
        node = harness.nodes[1]
        node.deliver(5, 0.0)
        node.on_message(Message(2, 1, PROPOSE, 48, harness_propose((5,))))
        harness.simulator.run(until=5.0)
        assert requests.sent == []
        assert node.state.request_attempts == {}

    def test_request_is_served_only_for_held_packets(self):
        harness = Harness()
        holder = harness.nodes[1]
        holder.deliver(3, 0.0)
        from repro.core.messages import RequestPayload

        holder.on_message(Message(2, 1, REQUEST, 56, RequestPayload(packet_ids=(3, 4))))
        assert holder.stats.serves_sent == 1
        assert holder.stats.packets_served == 1

    def test_serve_names_its_packet_and_charges_the_schedule_size(self):
        harness = Harness()
        serves = _SendLog(SERVE)
        harness.network.add_observer(serves)
        holder = harness.nodes[1]
        holder.deliver(3, 0.0)
        from repro.core.messages import RequestPayload, ServePayload, serve_size

        holder.on_message(Message(2, 1, REQUEST, 48, RequestPayload(packet_ids=(3,))))
        (serve,) = serves.messages
        assert serve.payload == ServePayload(packet_id=3)
        assert serve.size_bytes == serve_size(harness.schedule.packet(3).size_bytes)

    def test_served_packet_queued_for_next_proposal(self):
        harness = Harness()
        node = harness.nodes[1]
        from repro.core.messages import ServePayload

        node.on_message(Message(2, 1, SERVE, 1056, ServePayload(packet_id=7)))
        assert node.state.has_delivered(7)
        assert 7 in node.state.events_to_propose

    def test_duplicate_serve_counted_not_redelivered(self):
        harness = Harness()
        node = harness.nodes[1]
        from repro.core.messages import ServePayload

        serve = Message(2, 1, SERVE, 1056, ServePayload(packet_id=7))
        node.on_message(serve)
        node.on_message(serve)
        assert node.stats.duplicate_serves_received == 1
        assert sum(1 for (n, p, _) in harness.deliveries if n == 1 and p == 7) == 1


class TestInfectAndDie:
    def test_packet_proposed_in_exactly_one_round(self):
        harness = Harness(num_nodes=6, fanout=2)
        node = harness.nodes[1]
        node.start()
        from repro.core.messages import ServePayload

        node.on_message(Message(2, 1, SERVE, 1056, ServePayload(packet_id=3)))
        harness.simulator.run(until=1.0)
        proposes_after_first_round = node.stats.proposes_sent
        harness.simulator.run(until=3.0)
        assert proposes_after_first_round == harness.config.fanout
        assert node.stats.proposes_sent == proposes_after_first_round

    def test_no_proposal_sent_when_nothing_to_propose(self):
        harness = Harness(num_nodes=4)
        node = harness.nodes[1]
        node.start()
        harness.simulator.run(until=2.0)
        assert node.stats.proposes_sent == 0
        assert node.stats.gossip_rounds >= 9


class TestRetransmission:
    def test_lost_serve_is_recovered_by_retry(self):
        harness = Harness(num_nodes=3, loss_model=ScriptedLoss(SERVE, 1))
        source = harness.nodes[0]
        source.publish(harness.schedule.packet(0))
        harness.simulator.run(until=3.0)
        requesters = [n for n, node in harness.nodes.items() if n != 0 and node.state.has_delivered(0)]
        assert len(requesters) == harness.config.source_fanout
        total_retries = sum(node.stats.retransmission_requests_sent for node in harness.nodes.values())
        assert total_retries >= 1

    def test_retries_bounded_by_max_attempts(self):
        harness = Harness(num_nodes=3, loss_model=ScriptedLoss(SERVE, 10_000), max_request_attempts=3)
        source = harness.nodes[0]
        source.publish(harness.schedule.packet(0))
        harness.simulator.run(until=20.0)
        for node_id, node in harness.nodes.items():
            if node_id == 0:
                continue
            assert node.state.request_attempts.get(0, 0) <= 3
            assert not node.state.has_delivered(0)

    def test_no_retransmission_when_disabled(self):
        harness = Harness(num_nodes=3, loss_model=ScriptedLoss(SERVE, 10_000), max_request_attempts=1)
        source = harness.nodes[0]
        source.publish(harness.schedule.packet(0))
        harness.simulator.run(until=10.0)
        total_retries = sum(node.stats.retransmission_requests_sent for node in harness.nodes.values())
        assert total_retries == 0
        for node_id, node in harness.nodes.items():
            if node_id != 0:
                assert node.state.request_attempts.get(0, 0) <= 1

    def test_a_request_nobody_serves_is_sent_exactly_k_times(self):
        harness = Harness(num_nodes=3, max_request_attempts=2)
        requests = _RequestLog()
        harness.network.add_observer(requests)
        node = harness.nodes[1]
        # Node 2 advertises a packet it does not hold: no SERVE ever comes.
        node.on_message(Message(2, 1, PROPOSE, 48, harness_propose((5,))))
        harness.simulator.run(until=5.0)
        assert requests.sent == [(1, 2, (5,)), (1, 2, (5,))]
        assert node.stats.retransmission_requests_sent == 1
        assert node.state.request_attempts == {5: 2}

    def test_a_retry_asks_only_for_what_is_still_missing(self):
        harness = Harness(num_nodes=3, max_request_attempts=3)
        requests = _RequestLog()
        harness.network.add_observer(requests)
        node = harness.nodes[1]
        # Node 2 holds packet 5 but not 6: the first REQUEST gets half served.
        harness.nodes[2].deliver(5, 0.0)
        node.on_message(Message(2, 1, PROPOSE, 56, harness_propose((5, 6))))
        harness.simulator.run(until=5.0)
        assert requests.sent == [(1, 2, (5, 6)), (1, 2, (6,)), (1, 2, (6,))]
        assert node.state.delivered.keys() == {5}
        assert node.state.request_attempts == {5: 1, 6: 3}


class TestFeedMe:
    def test_feed_me_inserts_requester_into_view(self):
        harness = Harness(num_nodes=10, refresh_every=INFINITE)
        node = harness.nodes[1]
        before = set(node.partners.partners_for_round(0.0))
        outsider = next(n for n in range(2, 10) if n not in before)
        node.on_message(Message(outsider, 1, FEED_ME, 40))
        assert outsider in node.partners.partners_for_round(0.0)
        assert node.stats.feed_me_received == 1

    def test_feed_me_timer_sends_requests(self):
        harness = Harness(num_nodes=10, feed_me_every=2, refresh_every=INFINITE)
        node = harness.nodes[1]
        node.start()
        harness.simulator.run(until=1.0)
        # Y=2 with a 0.2 s period: one feed-me burst every 0.4 s.
        assert node.stats.feed_me_sent >= harness.config.fanout

    def test_feed_me_carries_nothing_but_its_sender(self):
        harness = Harness(num_nodes=10, feed_me_every=2, refresh_every=INFINITE)
        feed_mes = _SendLog(FEED_ME)
        harness.network.add_observer(feed_mes)
        harness.nodes[1].start()
        harness.simulator.run(until=1.0)
        assert feed_mes.messages
        assert {(m.sender, m.payload) for m in feed_mes.messages} == {(1, None)}

    def test_no_feed_me_when_disabled(self):
        harness = Harness(num_nodes=10)
        node = harness.nodes[1]
        node.start()
        harness.simulator.run(until=2.0)
        assert node.stats.feed_me_sent == 0


class TestFailure:
    def test_failed_node_ignores_messages(self):
        harness = Harness()
        node = harness.nodes[1]
        node.fail()
        node.on_message(Message(2, 1, PROPOSE, 48, harness_propose((5,))))
        assert node.stats.proposals_received == 0

    def test_failed_node_stops_gossiping(self):
        harness = Harness(num_nodes=6)
        node = harness.nodes[1]
        node.start()
        node.state.queue_for_proposal(3)
        node.deliver(3, 0.0)
        node.fail()
        harness.simulator.run(until=2.0)
        assert node.stats.proposes_sent == 0

    def test_unknown_message_kind_rejected(self):
        harness = Harness()
        with pytest.raises(ValueError):
            harness.nodes[1].on_message(Message(2, 1, "bogus", 10, None))


def harness_propose(packet_ids):
    from repro.core.messages import ProposePayload

    return ProposePayload(packet_ids=tuple(packet_ids))
