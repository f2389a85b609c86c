"""Unit tests for the protocol payload dataclasses."""

import pytest

from repro.core.messages import (
    TAG_SERVE,
    ProposePayload,
    RequestPayload,
    ServePayload,
    pack_payload,
    unpack_payload,
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


class TestServePayload:
    def test_names_its_packet_and_nothing_else(self):
        payload = ServePayload(packet_id=4)
        assert payload.packet_id == 4
        assert ServePayload.__slots__ == ("packet_id",)

    def test_packs_to_one_scalar(self):
        parts = pack_payload(ServePayload(4))
        assert parts == (TAG_SERVE, (4,), ())
        assert unpack_payload(*parts) == ServePayload(4)
