"""Unit tests for the gossip node engine (Algorithm 1)."""

import pytest

from repro.core.config import GOSSIP_PERIOD, GossipConfig
from repro.core.messages import (
    FEED_ME,
    PROPOSE,
    REQUEST,
    SERVE,
    ServePayload,
    feed_me_size,
    serve_table,
)
from repro.core.node import GossipNode
from repro.membership.directory import MembershipDirectory
from repro.membership.partners import INFINITE, PartnerSelector
from repro.network.latency import ConstantLatency
from repro.network.loss import LossModel
from repro.network.message import Message
from repro.network.transport import Network
from repro.simulation.engine import Simulator
from repro.simulation.rng import RngRegistry
from repro.streaming.schedule import StreamConfig, StreamSchedule
from repro.validation.observers import SessionObserver, TransportObserver


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
        serves = serve_table(self.schedule.packets())
        for node_id in range(num_nodes):
            node = GossipNode(
                node_id=node_id,
                simulator=self.simulator,
                network=self.network,
                directory=self.directory,
                serves=serves,
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
        node.finish()
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

    def test_a_pending_served_before_its_deadline_dispatches_no_event(self):
        harness = Harness(num_nodes=4, max_request_attempts=2)
        dispatched = _DispatchTimes()
        harness.simulator.add_observer(dispatched)
        node = harness.nodes[1]
        harness.nodes[3].deliver(6, 0.0)
        # Node 2 never serves packet 5, so the pending armed first fires;
        # node 3 serves packet 6 long before the second pending's deadline.
        node.on_message(Message(2, 1, PROPOSE, 48, harness_propose((5,))))
        harness.simulator.schedule(
            0.1, node.on_message, Message(3, 1, PROPOSE, 48, harness_propose((6,)))
        )
        harness.simulator.run(until=5.0)
        first_deadline = 0.0 + harness.config.retransmit_timeout
        second_deadline = 0.1 + harness.config.retransmit_timeout
        assert node.state.delivered[6] < second_deadline
        assert first_deadline in dispatched.times
        assert second_deadline not in dispatched.times

    def test_proposals_delivered_at_one_instant_retry_in_arm_order(self):
        harness = Harness(num_nodes=4, max_request_attempts=2)
        requests = _RequestLog()
        harness.network.add_observer(requests)
        node = harness.nodes[1]
        # Nobody holds packets 5 and 6: both PROPOSEs leave a retry armed.
        node.on_message(Message(2, 1, PROPOSE, 48, harness_propose((5,))))
        node.on_message(Message(3, 1, PROPOSE, 48, harness_propose((6,))))
        pending = list(node.state.pending_requests)
        assert [p.proposer for p in pending] == [2, 3]
        assert pending[0].slot < pending[1].slot
        harness.simulator.run(until=5.0)
        assert requests.sent == [(1, 2, (5,)), (1, 3, (6,))] * 2


class TestProposeArmsRetransmission:
    """Whether one PROPOSE leaves a retransmission armed: an id that may be requested again.

    An earlier PROPOSE of packet 9 is armed and queued first, so an entry the
    PROPOSE under test arms stays behind it (an unretryable front is dropped).
    """

    @staticmethod
    def armed_after(packet_ids, max_request_attempts, delivered=(), requested=()):
        harness = Harness(num_nodes=4, max_request_attempts=max_request_attempts)
        node = harness.nodes[1]
        for packet_id in delivered:
            node.deliver(packet_id, 0.0)
        for packet_id in requested:
            node.state.record_request(packet_id)
        node.on_message(Message(3, 1, PROPOSE, 48, harness_propose((9,))))
        node.on_message(Message(2, 1, PROPOSE, 56, harness_propose(packet_ids)))
        armed = [pending.packet_ids for pending in node.state.pending_requests]
        assert armed[0] == (9,)
        return armed[1:]

    def test_an_id_advertised_twice_at_k_2_reaches_k_and_arms_nothing(self):
        assert self.armed_after((5, 5), max_request_attempts=2) == []

    def test_an_id_advertised_twice_at_k_3_arms_one(self):
        assert self.armed_after((5, 5), max_request_attempts=3) == [(5, 5)]

    def test_only_delivered_ids_arm_nothing(self):
        assert self.armed_after((5, 6), max_request_attempts=3, delivered=(5, 6)) == []

    def test_ids_requested_under_k_times_arm_one(self):
        armed = self.armed_after((5, 6), max_request_attempts=3, delivered=(5,), requested=(6,))
        assert armed == [(5, 6)]

    def test_ids_requested_k_times_arm_nothing(self):
        armed = self.armed_after((6,), max_request_attempts=2, requested=(6, 6))
        assert armed == []


class _DispatchTimes:
    """The time of every event the simulator dispatches."""

    def __init__(self) -> None:
        self.times = []

    def on_event_dispatch(self, time, callback, args):
        self.times.append(time)


class _FeedMeRounds(SessionObserver):
    """The instant of every FEED_ME round; ``on_round()`` runs inside each."""

    def __init__(self, on_round=None) -> None:
        self.times = []
        self.on_round = on_round

    def on_feed_me_round(self, node_id, time, targets):
        self.times.append(time)
        if self.on_round is not None:
            self.on_round()


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

    def test_rounds_run_every_period_until_the_node_fails(self):
        class Rounds(SessionObserver):
            def __init__(self):
                self.times = []

            def on_feed_me_round(self, node_id, time, targets):
                self.times.append(time)

        harness = Harness(num_nodes=10, feed_me_every=2, refresh_every=INFINITE)
        node = harness.nodes[1]
        rounds = Rounds()
        node.add_observer(rounds)
        node.start()
        harness.simulator.schedule_at(1.3, node.fail)
        harness.simulator.run(until=3.0)
        period = 2 * GOSSIP_PERIOD
        # Each round re-arms one period after it ran; the failure cancels the next.
        assert rounds.times == [period, period + period, period + period + period]
        assert harness.simulator.pending_events == 0

    def test_rounds_fire_at_running_sums_of_the_period(self):
        harness = Harness(num_nodes=10, feed_me_every=2, refresh_every=INFINITE)
        node = harness.nodes[1]
        rounds = _FeedMeRounds()
        node.add_observer(rounds)
        node.start()
        harness.simulator.run(until=10.0)
        period = 2 * GOSSIP_PERIOD
        expected, t = [], period
        while t <= 10.0:
            expected.append(t)
            t += period
        assert rounds.times == expected

    def test_the_first_round_is_one_period_after_start(self):
        harness = Harness(num_nodes=10, feed_me_every=2, refresh_every=INFINITE)
        node = harness.nodes[1]
        rounds = _FeedMeRounds()
        node.add_observer(rounds)
        harness.simulator.run(until=0.75)
        node.start()
        harness.simulator.run(until=2.0)
        period = 2 * GOSSIP_PERIOD
        assert rounds.times[:2] == [0.75 + period, 0.75 + period + period]

    def test_a_node_failed_before_its_first_round_runs_none(self):
        harness = Harness(num_nodes=10, feed_me_every=2, refresh_every=INFINITE)
        node = harness.nodes[1]
        rounds = _FeedMeRounds()
        node.add_observer(rounds)
        node.start()
        harness.simulator.schedule_at(0.1, node.fail)
        harness.simulator.run(until=3.0)
        assert rounds.times == []
        assert node.stats.feed_me_sent == 0
        assert harness.simulator.pending_events == 0

    def test_failing_inside_a_round_schedules_nothing_more(self):
        harness = Harness(num_nodes=10, feed_me_every=2, refresh_every=INFINITE)
        node = harness.nodes[1]
        rounds = _FeedMeRounds(on_round=node.fail)
        node.add_observer(rounds)
        node.start()
        harness.simulator.run(until=3.0)
        assert rounds.times == [2 * GOSSIP_PERIOD]
        assert harness.simulator.pending_events == 0

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

    def test_fail_leaves_no_retransmission_queued(self):
        harness = Harness(num_nodes=5, max_request_attempts=3)
        requests = _RequestLog()
        harness.network.add_observer(requests)
        node = harness.nodes[1]
        for step, proposer in enumerate((2, 3, 4)):
            message = Message(proposer, 1, PROPOSE, 48, harness_propose((5 + step,)))
            harness.simulator.schedule(0.1 * step, node.on_message, message)
        harness.simulator.run(until=0.3)
        assert len(node.state.pending_requests) == 3
        # Three retransmissions armed, one queued: the front one.
        assert harness.simulator.pending_events == 1
        node.fail()
        assert harness.simulator.pending_events == 0
        assert not node.state.pending_requests
        harness.simulator.run_until_idle()
        assert len(requests.sent) == 3

    def test_unknown_message_kind_rejected(self):
        harness = Harness()
        with pytest.raises(ValueError):
            harness.nodes[1].on_message(Message(2, 1, "bogus", 10, None))


def harness_propose(packet_ids):
    from repro.core.messages import ProposePayload

    return ProposePayload(packet_ids=tuple(packet_ids))


class _Rounds(SessionObserver):
    """Every gossip tick that runs, as ``(node, time, partners)``."""

    def __init__(self) -> None:
        self.rounds = []

    def on_gossip_round(self, node_id, now, partners):
        self.rounds.append((node_id, now, list(partners)))


def serve(receiver, packet_id):
    return Message(2, receiver, SERVE, 1056, ServePayload(packet_id=packet_id))


def tick_instants(node_id, start, end, seed=3):
    """The instants a timer firing every period from the node's phase runs at."""
    t = start + RngRegistry(seed).node_stream("round-phase", node_id).uniform(0.0, GOSSIP_PERIOD)
    instants = []
    while t <= end:
        instants.append(t)
        t += GOSSIP_PERIOD
    return instants


class TestParkedTick:
    """A node queues its gossip tick only while it has something to propose."""

    def test_a_node_with_nothing_to_propose_queues_no_tick(self):
        harness = Harness(num_nodes=4)
        simulator, node = harness.simulator, harness.nodes[1]
        observer = _Rounds()
        node.add_observer(observer)
        node.start()
        assert simulator.pending_events == 0
        simulator.run(until=2.0)
        assert simulator.events_processed == 0
        node.on_message(serve(1, 7))
        assert simulator.pending_events == 1  # the next tick
        simulator.run(until=4.0)
        assert len(observer.rounds) == 1
        assert node.stats.proposes_sent == harness.config.fanout
        assert not node.state.events_to_propose
        assert simulator.pending_events == 0  # parked again

    def test_a_wake_before_the_reserved_instant_pops_at_the_timer_key(self):
        # The tick takes the key a timer armed at start would have taken: after
        # an event queued for its instant before start, before one queued after.
        harness = Harness(num_nodes=4)
        simulator, node = harness.simulator, harness.nodes[1]
        (first,) = tick_instants(1, 0.0, GOSSIP_PERIOD)
        seen = []
        observer = _Rounds()
        node.add_observer(observer)
        simulator.schedule_at(first, lambda: seen.append(("before start", len(observer.rounds))))
        node.start()
        simulator.schedule_at(first, lambda: seen.append(("after start", len(observer.rounds))))
        node.on_message(serve(1, 7))
        simulator.run(until=first)
        assert seen == [("before start", 0), ("after start", 1)]
        assert [(n, t) for n, t, _ in observer.rounds] == [(1, first)]

    @pytest.mark.parametrize("refresh_every", [1, 2, INFINITE])
    @pytest.mark.parametrize("inside", ["nothing", "feed-me round", "feed-me receipt", "failure"])
    def test_replayed_ticks_draw_what_a_timer_would_have(self, refresh_every, inside):
        feed_me_every = 3 if inside == "feed-me round" else INFINITE
        harness = Harness(num_nodes=6, refresh_every=refresh_every, feed_me_every=feed_me_every)
        simulator, node = harness.simulator, harness.nodes[1]
        observer = _Rounds()
        node.add_observer(observer)
        reference_rng = RngRegistry(3).node_stream("partners", 1)
        reference = PartnerSelector(
            node_id=1,
            directory=harness.directory,
            fanout=harness.config.fanout,
            refresh_every=refresh_every,
            rng=reference_rng,
        )
        end = 3.5
        expected = {}
        for t in tick_instants(1, 0.0, end):
            simulator.schedule_at(t, lambda t=t: expected.__setitem__(t, reference.partners_for_round(t)))
        if inside == "feed-me round":
            period = feed_me_every * GOSSIP_PERIOD
            t = period
            while t <= end:
                simulator.schedule_at(t, reference.pick_feed_me_targets, t)
                t += period
        elif inside == "feed-me receipt":
            feed_me = Message(3, 1, FEED_ME, feed_me_size(), None)
            simulator.schedule_at(1.05, node.on_message, feed_me)
            simulator.schedule_at(1.05, reference.insert_requester, 3, 1.05)
        elif inside == "failure":  # detected at 1.5, inside the stretch 0 – 2.5
            simulator.schedule_at(0.5, harness.nodes[4].fail)
            simulator.schedule_at(0.5, harness.directory.mark_failed, 4, 0.5)
        node.start()
        # Parked from its phase to 2.5, then kept awake for a few rounds.
        for packet_id, t in enumerate((2.5, 2.75, 3.0)):
            simulator.schedule_at(t, node.on_message, serve(1, packet_id))
        simulator.run(until=end)
        assert len(observer.rounds) == 3
        assert [partners for _, _, partners in observer.rounds] == [
            expected[t] for _, t, _ in observer.rounds
        ]
        node.catch_up(end)
        assert simulator.rng.node_stream("partners", 1).getstate() == reference_rng.getstate()
        node.finish()
        assert node.stats.gossip_rounds == len(expected)

    def test_a_node_failing_while_parked_counts_its_ticks_and_draws_nothing(self):
        harness = Harness(num_nodes=4)
        simulator, node = harness.simulator, harness.nodes[1]
        untouched = RngRegistry(3).node_stream("partners", 1).getstate()
        node.start()
        simulator.schedule_at(1.03, node.fail)
        simulator.run(until=3.0)
        node.on_message(serve(1, 7))  # dead: ignored, no tick queued
        node.finish()
        assert node.stats.gossip_rounds == len(tick_instants(1, 0.0, 1.03))
        assert simulator.rng.node_stream("partners", 1).getstate() == untouched
        assert simulator.pending_events == 0
