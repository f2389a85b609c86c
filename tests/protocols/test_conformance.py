"""Protocol conformance: invariants every dissemination strategy must hold.

The same session-level checks run against each registered protocol: every
packet reaches every receiver (on a well-provisioned, loss-free substrate),
first deliveries are unique, counters stay mutually consistent, and fixed
seeds reproduce bit-identical runs.  A new protocol that passes this suite
can be swapped into any scenario without breaking the metrics layer.
"""

import pytest

from repro.core.config import GossipConfig
from repro.core.session import SessionConfig, StreamingSession
from repro.network.transport import NetworkConfig
from repro.protocols import available_protocols
from repro.streaming.schedule import StreamConfig

PROTOCOLS = available_protocols()


def conformance_config(protocol: str, seed: int = 17) -> SessionConfig:
    """A small, loss-free, uncapped session where dissemination must succeed.

    Eager push spends a full payload per duplicate, so the level playing
    field is an unconstrained network; the bandwidth-sensitive comparisons
    live in the scenario layer, not here.  The fanout (7 of 15 possible
    partners) is sized so pure infect-and-die covers everyone: eager push
    has no retransmission phase, and the miss probability of a gossip round
    decays like ``e^-fanout``.
    """
    return SessionConfig(
        num_nodes=16,
        seed=seed,
        protocol=protocol,
        gossip=GossipConfig(fanout=7, refresh_every=1, retransmit_timeout=1.0),
        stream=StreamConfig(
            rate_kbps=600.0,
            payload_bytes=1000,
            source_packets_per_window=10,
            fec_packets_per_window=1,
            num_windows=4,
        ),
        network=NetworkConfig(
            upload_cap_kbps=None,
            latency_model="constant",
            base_latency=0.02,
            random_loss=0.0,
        ),
        extra_time=15.0,
    )


@pytest.fixture(scope="module", params=PROTOCOLS)
def protocol_result(request):
    """One completed session per registered protocol."""
    result = StreamingSession(conformance_config(request.param)).run()
    return request.param, result


class TestConformance:
    def test_all_protocols_are_exercised(self):
        assert "three-phase" in PROTOCOLS
        assert "eager-push" in PROTOCOLS

    def test_every_receiver_gets_every_packet(self, protocol_result):
        name, result = protocol_result
        assert result.delivery_ratio() == pytest.approx(1.0), name

    def test_no_duplicate_first_deliveries(self, protocol_result):
        name, result = protocol_result
        total = sum(
            result.deliveries.packets_delivered(node_id)
            for node_id in [result.source_id] + result.receivers()
        )
        assert result.deliveries.total_deliveries == total, name

    def test_deliveries_bounded_by_population(self, protocol_result):
        name, result = protocol_result
        nodes = result.config.num_nodes
        assert result.deliveries.total_deliveries <= nodes * result.schedule.num_packets, name

    def test_counters_consistent(self, protocol_result):
        name, result = protocol_result
        stats = list(result.node_stats.values())
        total_serves = sum(s.serves_sent for s in stats)
        total_packets_served = sum(s.packets_served for s in stats)
        total_requests_sent = sum(s.requests_sent for s in stats)
        total_requests_received = sum(s.requests_received for s in stats)
        # Serve accounting is shared by all protocols.
        assert total_serves == total_packets_served, name
        # Nothing received that was never sent (loss-free network).
        assert total_requests_received <= total_requests_sent, name
        # Every non-source delivery was carried by some serve/push.
        non_source_deliveries = result.deliveries.total_deliveries - result.schedule.num_packets
        assert total_serves >= non_source_deliveries, name

    def test_every_node_runs_gossip_rounds(self, protocol_result):
        name, result = protocol_result
        for node_id in result.receivers():
            assert result.node_stats[node_id].gossip_rounds > 0, (name, node_id)

    def test_fixed_seed_reproduces_bitwise(self, protocol_result):
        name, first = protocol_result
        second = StreamingSession(conformance_config(name)).run()
        assert first.deliveries.raw() == second.deliveries.raw(), name
        assert first.events_processed == second.events_processed, name


class TestProtocolContrast:
    def test_eager_push_moves_payload_without_requests(self):
        result = StreamingSession(conformance_config("eager-push")).run()
        stats = list(result.node_stats.values())
        assert sum(s.requests_sent for s in stats) == 0
        assert sum(s.proposes_sent for s in stats) == 0
        assert sum(s.serves_sent for s in stats) > 0

    def test_three_phase_negotiates_before_serving(self):
        result = StreamingSession(conformance_config("three-phase")).run()
        stats = list(result.node_stats.values())
        assert sum(s.proposes_sent for s in stats) > 0
        assert sum(s.requests_sent for s in stats) > 0

    def test_eager_push_uploads_more_bytes_for_same_stream(self):
        """Duplicates cost a full payload without the id-negotiation phase."""
        three_phase = StreamingSession(conformance_config("three-phase")).run()
        eager = StreamingSession(conformance_config("eager-push")).run()
        eager_bytes = eager.traffic.metrics_view()["net.bytes_sent"]
        assert eager_bytes > three_phase.traffic.metrics_view()["net.bytes_sent"]
