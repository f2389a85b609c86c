"""Pin the refactored ThreePhaseGossip to the seed implementation's output.

Before the protocol layer existed, Algorithm 1 lived inline in
``GossipNode``.  The numbers below were captured from that monolithic seed
implementation on a fixed-seed session; the strategy-based implementation
must keep reproducing them *exactly* — same delivery log (content digest),
same number of deliveries, same number of simulated events.

If this test breaks, the protocol refactor changed observable behaviour —
that is a bug, not a baseline to re-pin, unless a PR deliberately changes
the protocol and says so.
"""

import dataclasses
import hashlib

from repro.core.config import GossipConfig
from repro.core.session import SessionConfig, StreamingSession
from repro.network.transport import NetworkConfig
from repro.streaming.schedule import StreamConfig
from repro.telemetry.config import TelemetryConfig

# Captured from the pre-refactor seed implementation (monolithic GossipNode),
# commit 1193003, with the exact configuration below.  The event count was
# 11956 while every armed retransmission was queued and fired; queueing only
# each node's front live one drops 1,901 no-op fires and moves nothing else.
# It was 10055 while every node's gossip timer fired every period; queueing a
# tick only while the node has something to propose drops the 1,958 quiet
# ones and moves nothing else.
SEED_TOTAL_DELIVERIES = 3515
SEED_EVENTS_PROCESSED = 8097
# Gossip ticks over every node, counted while each node's timer fired every
# period; a parked node counts the ticks it skipped, so the sum stays put.
SEED_GOSSIP_ROUNDS = 2237
SEED_DELIVERY_LOG_SHA256 = "b3eedd82bbc021800daf5eff624146824310272c250de9d9201e12123d968cc3"


def seed_pinned_config() -> SessionConfig:
    return SessionConfig(
        num_nodes=20,
        seed=1234,
        gossip=GossipConfig(fanout=5, refresh_every=1, retransmit_timeout=2.0),
        stream=StreamConfig(
            rate_kbps=600.0,
            payload_bytes=1000,
            source_packets_per_window=20,
            fec_packets_per_window=2,
            num_windows=8,
        ),
        network=NetworkConfig(upload_cap_kbps=700.0, max_backlog_seconds=10.0),
        extra_time=20.0,
    )


def delivery_log_digest(result) -> str:
    entries = sorted(
        (node, packet_id, time)
        for node, log in result.deliveries.raw().items()
        for packet_id, time in log.items()
    )
    return hashlib.sha256(repr(entries).encode()).hexdigest()


class TestSeedRegression:
    def test_three_phase_reproduces_seed_delivery_log(self):
        result = StreamingSession(seed_pinned_config()).run()
        assert result.deliveries.total_deliveries == SEED_TOTAL_DELIVERIES
        assert result.events_processed == SEED_EVENTS_PROCESSED
        assert delivery_log_digest(result) == SEED_DELIVERY_LOG_SHA256

    def test_explicit_protocol_name_matches_default(self):
        default = StreamingSession(seed_pinned_config()).run()
        config = seed_pinned_config()
        config.protocol = "three-phase"
        named = StreamingSession(config).run()
        assert delivery_log_digest(default) == delivery_log_digest(named)

    def test_gossip_rounds_count_every_period_in_the_result_and_the_metrics(self):
        config = dataclasses.replace(seed_pinned_config(), telemetry=TelemetryConfig(metrics=True))
        result = StreamingSession(config).run()
        rounds = sum(stats.gossip_rounds for stats in result.node_stats.values())
        assert rounds == SEED_GOSSIP_ROUNDS
        assert result.telemetry.metrics["proto.gossip_rounds"] == SEED_GOSSIP_ROUNDS
        assert delivery_log_digest(result) == SEED_DELIVERY_LOG_SHA256
