"""Unit tests for the flash-crowd join schedule."""

import math

import pytest

from repro.core.config import GOSSIP_PERIOD, GossipConfig
from repro.core.session import SessionConfig, StreamingSession
from repro.membership.join import FlashCrowdJoin
from repro.membership.partners import INFINITE, PartnerSelector
from repro.simulation.rng import RngRegistry
from repro.streaming.schedule import StreamConfig


class TestFlashCrowdJoin:
    def test_requested_fraction_joins_late(self):
        assert len(FlashCrowdJoin(time=8.0, fraction=0.4).joiners(list(range(1, 51)))) == 20

    def test_joiners_are_the_last_ids(self):
        assert FlashCrowdJoin(time=1.0, fraction=0.4).joiners([7, 3, 9, 1, 5]) == (7, 9)

    def test_zero_fraction_has_no_joiners(self):
        assert FlashCrowdJoin(time=1.0, fraction=0.0).joiners(list(range(10))) == ()

    def test_full_fraction_is_everyone(self):
        assert FlashCrowdJoin(time=1.0, fraction=1.0).joiners([2, 1, 3]) == (1, 2, 3)

    @pytest.mark.parametrize("time, fraction", [(-1.0, 0.5), (1.0, -0.1), (1.0, 1.5)])
    def test_invalid_arguments_rejected(self, time, fraction):
        with pytest.raises(ValueError):
            FlashCrowdJoin(time=time, fraction=fraction)

    def test_describe_mentions_fraction(self):
        assert "40%" in FlashCrowdJoin(time=8.0, fraction=0.4).describe()


@pytest.mark.parametrize("refresh_every", [1, 2, INFINITE])
def test_parked_nodes_replay_their_ticks_before_the_join_adds_members(refresh_every):
    # After the stream every node is parked; the join must not reach the
    # partner draws of the ticks they skipped before it, because the
    # directory cannot date an addition.
    stream = StreamConfig(
        rate_kbps=600.0,
        payload_bytes=1000,
        source_packets_per_window=5,
        fec_packets_per_window=1,
        num_windows=2,
    )
    join = FlashCrowdJoin(time=stream.end_time + 3.0, fraction=0.25)
    config = SessionConfig(
        num_nodes=12,
        seed=5,
        gossip=GossipConfig(fanout=3, refresh_every=refresh_every),
        stream=stream,
        join=join,
        extra_time=6.0,
    )
    late = set(join.joiners(config.receiver_ids()))
    session = StreamingSession(config)
    session.build()
    simulator = session.simulator
    references = {}

    def reference_tick(selector, t):
        # What a timer firing every period would have drawn, at its instant.
        selector.partners_for_round(t)
        if t + GOSSIP_PERIOD <= join.time:
            simulator.schedule_at(t + GOSSIP_PERIOD, reference_tick, selector, t + GOSSIP_PERIOD)

    for node_id in range(config.num_nodes):
        if node_id in late:
            continue
        registry = RngRegistry(config.seed)
        references[node_id] = registry.node_stream("partners", node_id)
        selector = PartnerSelector(
            node_id, session.directory, 3, refresh_every, references[node_id]
        )
        first = registry.node_stream("round-phase", node_id).uniform(0.0, GOSSIP_PERIOD)
        simulator.schedule_at(first, reference_tick, selector, first)

    rounds = []

    def probe():
        rounds.append(sum(node.stats.gossip_rounds for node in session.nodes.values()))
        return {
            node_id: (simulator.rng.node_stream("partners", node_id).getstate(), rng.getstate())
            for node_id, rng in references.items()
        }

    states = []
    simulator.schedule_at(math.nextafter(join.time, -math.inf), probe)
    simulator.schedule_at(join.time, lambda: states.append(probe()))  # after the join
    session.run()
    assert rounds[1] > rounds[0]  # the join replayed skipped ticks
    (after_join,) = states
    for node_id, (drawn, reference) in after_join.items():
        assert drawn == reference, node_id
