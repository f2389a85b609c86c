"""Unit tests for the gossip configuration and message size model."""

import pytest

from repro.core.config import GossipConfig, MessageSizeModel
from repro.membership.partners import INFINITE


class TestMessageSizeModel:
    def test_propose_and_request_sizes_grow_with_ids(self):
        sizes = MessageSizeModel(header_bytes=40, id_bytes=8)
        assert sizes.propose_size(0) == 40
        assert sizes.propose_size(10) == 120
        assert sizes.request_size(3) == 64

    def test_serve_size_includes_payload_and_overhead(self):
        sizes = MessageSizeModel(header_bytes=40, per_packet_overhead_bytes=16)
        assert sizes.serve_size(1000) == 1056

    def test_feed_me_size_is_header_only(self):
        assert MessageSizeModel(header_bytes=40).feed_me_size() == 40

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            MessageSizeModel(header_bytes=0)


class TestGossipConfig:
    def test_paper_baseline(self):
        config = GossipConfig()
        assert config.fanout == 7
        assert config.gossip_period == pytest.approx(0.2)
        assert config.refresh_every == 1
        assert config.feed_me_every == INFINITE
        assert config.source_fanout == 7

    def test_retransmission_enabled_flag(self):
        assert GossipConfig(max_request_attempts=2).retransmission_enabled
        assert not GossipConfig(max_request_attempts=1).retransmission_enabled

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            GossipConfig(fanout=0)
        with pytest.raises(ValueError):
            GossipConfig(gossip_period=0.0)
        with pytest.raises(ValueError):
            GossipConfig(refresh_every=0)
        with pytest.raises(ValueError):
            GossipConfig(refresh_every=1.5)
        with pytest.raises(ValueError):
            GossipConfig(feed_me_every=-2)
        with pytest.raises(ValueError):
            GossipConfig(retransmit_timeout=0.0)
        with pytest.raises(ValueError):
            GossipConfig(max_request_attempts=0)
        with pytest.raises(ValueError):
            GossipConfig(source_fanout=0)
