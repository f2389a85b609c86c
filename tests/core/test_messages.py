"""Unit tests for the protocol payload dataclasses."""

import pytest

from repro.core.messages import (
    FeedMePayload,
    ProposePayload,
    RequestPayload,
    ServePayload,
    ServedPacket,
)


class TestProposePayload:
    def test_holds_ids(self):
        assert ProposePayload(packet_ids=(1, 2, 3)).packet_ids == (1, 2, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ProposePayload(packet_ids=())


class TestRequestPayload:
    def test_holds_ids(self):
        assert RequestPayload(packet_ids=(9,)).packet_ids == (9,)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RequestPayload(packet_ids=())


class TestServedPacket:
    def test_defaults_to_no_payload(self):
        packet = ServedPacket(packet_id=4, size_bytes=1000)
        assert packet.payload is None

    def test_payload_carried(self):
        packet = ServedPacket(packet_id=4, size_bytes=4, payload=b"abcd")
        assert packet.payload == b"abcd"

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            ServedPacket(packet_id=4, size_bytes=0)


class TestServePayload:
    def test_wraps_packet(self):
        packet = ServedPacket(packet_id=1, size_bytes=10)
        assert ServePayload(packet=packet).packet is packet


class TestFeedMePayload:
    def test_requester_recorded(self):
        assert FeedMePayload(requester=5).requester == 5

    def test_negative_requester_rejected(self):
        with pytest.raises(ValueError):
            FeedMePayload(requester=-1)
