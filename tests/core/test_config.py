"""Unit tests for the gossip configuration and the message size functions."""

import pytest

from repro.core.config import GOSSIP_PERIOD, GossipConfig
from repro.core.messages import feed_me_size, propose_size, request_size, serve_size
from repro.membership.partners import INFINITE


class TestMessageSizes:
    """40 header bytes, 8 per packet id, 16 of framing per served packet:
    the bytes every golden file was recorded with."""

    @pytest.mark.parametrize(
        "size, args, expected",
        [
            pytest.param(propose_size, (1,), 48, id="PROPOSE(1)"),
            pytest.param(propose_size, (10,), 120, id="PROPOSE(10)"),
            pytest.param(request_size, (3,), 64, id="REQUEST(3)"),
            pytest.param(request_size, (101,), 848, id="REQUEST(101)"),
            pytest.param(serve_size, (1000,), 1056, id="SERVE(1000)"),
            pytest.param(serve_size, (1,), 57, id="SERVE(1)"),
            pytest.param(feed_me_size, (), 40, id="FEED_ME"),
        ],
    )
    def test_wire_size(self, size, args, expected):
        assert size(*args) == expected


class TestGossipConfig:
    def test_paper_baseline(self):
        config = GossipConfig()
        assert config.fanout == 7
        assert GOSSIP_PERIOD == pytest.approx(0.2)
        assert config.refresh_every == 1
        assert config.feed_me_every == INFINITE
        assert config.source_fanout == 7

    def test_feed_me_period_is_a_whole_number_of_rounds(self):
        for feed_me_every in (0, 1.5):
            with pytest.raises(ValueError):
                GossipConfig(feed_me_every=feed_me_every)
        assert GossipConfig(feed_me_every=3).feed_me_every == 3

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            GossipConfig(fanout=0)
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
