"""The observer hook layer: edges fire correctly and change nothing."""

import pytest

from repro.core.messages import PROPOSE
from repro.network.bandwidth import BandwidthCap
from repro.network.latency import ConstantLatency
from repro.network.loss import UniformLoss
from repro.network.message import Message
from repro.network.transport import Network
from repro.scenarios import build_scenario
from repro.scenarios import build_session
from repro.simulation.engine import Simulator
from repro.sweep.summary import MetricsRequest, summarize
from repro.validation import (
    InvariantSuite,
    SessionObserver,
    attach_session_observer,
    validate_session,
)


class RecordingObserver(SessionObserver):
    """Appends every edge it sees as a (edge name, detail) tuple."""

    def __init__(self):
        self.events = []

    def on_event_dispatch(self, time, callback, args):
        self.events.append(("dispatch", time))

    def on_send_blocked(self, message, now):
        self.events.append(("send_blocked", message.kind))

    def on_send_accepted(self, message, now, finish_time):
        self.events.append(("send_accepted", message.kind, now, finish_time))

    def on_congestion_drop(self, message, now):
        self.events.append(("congestion_drop", message.kind))

    def on_in_flight_loss(self, message, now):
        self.events.append(("in_flight_loss", message.kind))

    def on_delivered(self, message, now):
        self.events.append(("delivered", message.kind))

    def on_delivery_dropped(self, message, now):
        self.events.append(("delivery_dropped", message.kind))

    def on_node_failed(self, node_id, now):
        self.events.append(("node_failed", node_id))

    def on_node_recovered(self, node_id, now):
        self.events.append(("node_recovered", node_id))

    def on_packet_delivered(self, node_id, packet_id, time, is_source):
        self.events.append(("packet_delivered", node_id, packet_id))

    def of_kind(self, name):
        return [event for event in self.events if event[0] == name]


def _message(sender=0, receiver=1, kind=PROPOSE, size_bytes=100):
    return Message(sender=sender, receiver=receiver, kind=kind, size_bytes=size_bytes)


class TestSimulatorObserver:
    def test_dispatch_edge_fires_per_event_with_nondecreasing_times(self):
        simulator = Simulator(seed=1)
        observer = RecordingObserver()
        simulator.add_observer(observer)
        simulator.schedule(0.5, lambda: None)
        simulator.schedule(0.1, lambda: None)
        simulator.schedule(0.1, lambda: None)
        simulator.run_until_idle()
        times = [time for _, time in observer.events]
        assert times == [0.1, 0.1, 0.5]

    def test_dispatch_edge_sees_callback_and_args(self):
        simulator = Simulator(seed=1)
        seen = []
        observer = RecordingObserver()
        observer.on_event_dispatch = lambda time, callback, args: seen.append(
            (time, callback, args)
        )
        simulator.add_observer(observer)
        simulator.schedule(1.0, seen.append, "payload")
        simulator.run_until_idle()
        assert seen[0][0] == 1.0
        assert seen[0][2] == ("payload",)


class TestTransportObserver:
    def _network(self, simulator, loss=None):
        network = Network(simulator, latency_model=ConstantLatency(0.05), loss_model=loss)
        observer = RecordingObserver()
        network.add_observer(observer)
        return network, observer

    def test_accept_and_deliver_edges(self, simulator):
        network, observer = self._network(simulator)
        network.register(0, lambda m: None)
        network.register(1, lambda m: None)
        assert network.send(_message())
        simulator.run_until_idle()
        assert observer.of_kind("send_accepted")
        assert observer.of_kind("delivered")

    def test_send_blocked_edge_for_dead_or_unknown_sender(self, simulator):
        network, observer = self._network(simulator)
        network.register(1, lambda m: None)
        assert not network.send(_message(sender=9))
        network.register(9, lambda m: None)
        network.fail_node(9)
        assert not network.send(_message(sender=9))
        assert len(observer.of_kind("send_blocked")) == 2

    def test_congestion_drop_edge(self, simulator):
        network, observer = self._network(simulator)
        # 8 kbps cap, 1 s backlog: a second 1000-byte datagram cannot fit.
        cap = BandwidthCap.from_kbps(8.0, max_backlog_seconds=1.0)
        network.register(0, lambda m: None, cap)
        network.register(1, lambda m: None)
        assert network.send(_message(size_bytes=1000))
        assert not network.send(_message(size_bytes=1000))
        assert len(observer.of_kind("congestion_drop")) == 1

    def test_in_flight_loss_edge(self, simulator):
        loss = UniformLoss(simulator.rng, probability=1.0)
        network, observer = self._network(simulator, loss=loss)
        network.register(0, lambda m: None)
        network.register(1, lambda m: None)
        assert network.send(_message())  # accepted, then lost
        simulator.run_until_idle()
        assert len(observer.of_kind("in_flight_loss")) == 1
        assert observer.of_kind("delivered") == []

    def test_delivery_dropped_edge_for_dead_receiver(self, simulator):
        network, observer = self._network(simulator)
        network.register(0, lambda m: None)
        network.register(1, lambda m: None)
        assert network.send(_message())
        network.fail_node(1)
        simulator.run_until_idle()
        assert len(observer.of_kind("delivery_dropped")) == 1
        assert observer.of_kind("delivered") == []

    def test_failure_and_recovery_edges(self, simulator):
        network, observer = self._network(simulator)
        network.register(1, lambda m: None)
        network.fail_node(1)
        network.recover_node(1)
        assert observer.of_kind("node_failed") == [("node_failed", 1)]
        assert observer.of_kind("node_recovered") == [("node_recovered", 1)]

    def test_delivered_fires_before_the_handler(self, simulator):
        order = []
        network = Network(simulator, latency_model=ConstantLatency(0.05))
        observer = RecordingObserver()
        observer.on_delivered = lambda message, now: order.append("observer")
        network.add_observer(observer)
        network.register(0, lambda m: None)
        network.register(1, lambda m: order.append("handler"))
        network.send(_message())
        simulator.run_until_idle()
        assert order == ["observer", "handler"]


class TestNodeObserver:
    def test_delivery_edge_fires_once_per_packet(self):
        session = build_session(build_scenario("homogeneous", num_nodes=12, seed=3))
        session.build()
        observer = RecordingObserver()
        attach_session_observer(session, observer)
        result = session.run()
        deliveries = observer.of_kind("packet_delivered")
        assert len(deliveries) == len(set(deliveries))  # no duplicates
        assert len(deliveries) == result.deliveries.total_deliveries

    def test_attach_requires_a_built_session(self):
        session = build_session(build_scenario("homogeneous", num_nodes=12, seed=3))
        with pytest.raises(ValueError, match="not built"):
            attach_session_observer(session, RecordingObserver())


class TestObserversDoNotPerturb:
    """The determinism contract: observed and unobserved runs are identical."""

    REQUEST = MetricsRequest(viewing_lags=(10.0, 20.0), window_lags=(20.0,))

    def _summary(self, result, name):
        return summarize(result, self.REQUEST, cell_id=name, seed=result.config.seed)

    @pytest.mark.parametrize("scenario", ["homogeneous", "churn-window", "eager-push"])
    def test_armed_invariants_change_nothing(self, scenario):
        spec = build_scenario(scenario, num_nodes=16, seed=5)
        plain = build_session(spec).run()
        observed = validate_session(build_session(spec), InvariantSuite.default())
        assert self._summary(plain, scenario) == self._summary(observed, scenario)
        assert plain.events_processed == observed.events_processed
