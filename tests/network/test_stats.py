"""Unit tests for traffic statistics."""

import pytest

from repro.network.latency import ConstantLatency
from repro.network.message import Message
from repro.network.stats import NodeTraffic, TrafficStats
from repro.network.transport import Network
from repro.simulation.engine import Simulator


class TestNodeTraffic:
    def test_upload_kbps(self):
        traffic = NodeTraffic(bytes_sent=125_000)
        # 125 kB over 10 s = 100 kbps.
        assert traffic.upload_kbps(10.0) == pytest.approx(100.0)

    def test_upload_kbps_requires_positive_duration(self):
        with pytest.raises(ValueError):
            NodeTraffic().upload_kbps(0.0)


def sent_through_network(*datagrams):
    """The stats of a network that carried ``(sender, receiver, kind, size)`` datagrams."""
    simulator = Simulator(seed=1)
    network = Network(simulator, latency_model=ConstantLatency(0.01))
    for node_id in sorted({node for datagram in datagrams for node in datagram[:2]}):
        network.register(node_id, lambda message: None)
    for sender, receiver, kind, size in datagrams:
        network.send(Message(sender=sender, receiver=receiver, kind=kind, size_bytes=size))
    simulator.run_until_idle()
    return network.stats


class TestTrafficStats:
    def test_record_sent_accumulates(self):
        stats = sent_through_network((1, 2, "propose", 100), (1, 2, "serve", 1000))
        node = stats.node(1)
        assert node.bytes_sent == 1100
        assert node.messages_sent == 2
        assert node.sent_bytes_by_kind["propose"] == 100
        assert node.sent_bytes_by_kind["serve"] == 1000

    def test_record_received(self):
        stats = sent_through_network((1, 2, "serve", 1000))
        assert stats.node(2).bytes_received == 1000
        assert stats.node(2).messages_received == 1
        assert stats.node(2).received_bytes_by_kind["serve"] == 1000
        assert stats.node(1).bytes_received == 0

    def test_nodes_lists_active_nodes(self):
        stats = sent_through_network((3, 5, "propose", 1))
        assert set(stats.raw()) == {3, 5}

    def test_record_congestion_drop(self):
        stats = TrafficStats()
        stats.record_congestion_drop(1, "serve", 500)
        assert stats.node(1).messages_dropped_congestion == 1
        assert stats.total_congestion_drops() == 1

    def test_record_in_flight_loss(self):
        stats = TrafficStats()
        stats.record_in_flight_loss(1, "serve", 500)
        assert stats.node(1).messages_lost_in_flight == 1
        assert stats.total_in_flight_losses() == 1

    def test_total_bytes_sent(self):
        stats = TrafficStats()
        stats.node(1).bytes_sent = 10
        stats.node(2).bytes_sent = 20
        assert stats.metrics_view()["net.bytes_sent"] == 30.0


class TestMetricsView:
    """The telemetry export stays a thin view over the NodeTraffic cells."""

    def _populated(self):
        stats = TrafficStats()
        stats.adopt_cell(
            1, NodeTraffic(bytes_sent=100, messages_sent=1, sent_bytes_by_kind={"propose": 100})
        )
        stats.adopt_cell(
            2,
            NodeTraffic(
                bytes_sent=1000,
                messages_sent=1,
                sent_bytes_by_kind={"serve": 1000},
                bytes_received=1000,
                messages_received=1,
                received_bytes_by_kind={"serve": 1000},
            ),
        )
        stats.record_congestion_drop(1, "serve", 500)
        stats.record_in_flight_loss(2, "serve", 700)
        return stats

    def test_totals_summed_across_nodes(self):
        view = self._populated().metrics_view()
        assert view["net.bytes_sent"] == 1100.0
        assert view["net.messages_sent"] == 2.0
        assert view["net.bytes_received"] == 1000.0
        assert view["net.bytes_dropped_congestion"] == 500.0
        assert view["net.messages_dropped_congestion"] == 1.0
        assert view["net.bytes_lost_in_flight"] == 700.0
        assert view["net.messages_lost_in_flight"] == 1.0

    def test_per_kind_byte_split(self):
        view = self._populated().metrics_view()
        assert view["net.bytes_sent{kind=propose}"] == 100.0
        assert view["net.bytes_sent{kind=serve}"] == 1000.0
        assert view["net.bytes_received{kind=serve}"] == 1000.0

    def test_view_is_live_not_a_copy(self):
        stats = self._populated()
        before = stats.metrics_view()["net.bytes_sent"]
        stats.node(1).bytes_sent += 900
        assert stats.metrics_view()["net.bytes_sent"] == before + 900.0

    def test_bind_registry_exports_through_snapshot(self):
        from repro.telemetry.metrics import MetricsRegistry

        stats = self._populated()
        registry = MetricsRegistry()
        stats.bind_registry(registry)
        snapshot = registry.snapshot()
        assert snapshot["net.bytes_sent"] == 1100.0
        assert snapshot["net.bytes_sent{kind=serve}"] == 1000.0

    def test_old_per_node_api_unchanged_by_view(self):
        stats = self._populated()
        stats.metrics_view()
        assert stats.node(1).bytes_sent == 100
        assert stats.node(2).sent_bytes_by_kind["serve"] == 1000
        assert sum(traffic.bytes_sent for traffic in stats.raw().values()) == 1100
