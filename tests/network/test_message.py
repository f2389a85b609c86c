"""Unit tests for the network message type."""

import pytest

from repro.network.message import Message


class TestMessage:
    def test_basic_construction(self):
        message = Message(sender=1, receiver=2, kind="propose", size_bytes=120)
        assert message.sender == 1
        assert message.receiver == 2
        assert message.kind == "propose"
        assert message.size_bytes == 120
        assert message.payload is None

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            Message(sender=0, receiver=1, kind="propose", size_bytes=0)

    def test_negative_node_id_rejected(self):
        with pytest.raises(ValueError):
            Message(sender=-1, receiver=1, kind="propose", size_bytes=10)

    def test_payload_is_carried(self):
        payload = {"ids": (1, 2, 3)}
        message = Message(sender=0, receiver=1, kind="propose", size_bytes=10, payload=payload)
        assert message.payload is payload

    def test_message_is_frozen(self):
        message = Message(sender=0, receiver=1, kind="propose", size_bytes=10)
        with pytest.raises(AttributeError):
            message.size_bytes = 20
