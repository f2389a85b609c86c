"""Round-trip and robustness tests for the realnet wire codec."""

import random

import pytest

from repro.core.messages import (
    FeedMePayload,
    ProposePayload,
    RequestPayload,
    ServePayload,
    ServedPacket,
)
from repro.network.message import Message
from repro.realnet.codec import MAX_DATAGRAM_BYTES, decode_message, encode_message
from repro.realnet.errors import CodecError
from tests.wire_strategies import OVERFLOWING_MESSAGES, mutate, six_kind_batch


def roundtrip(message: Message) -> Message:
    return decode_message(encode_message(message))


class TestRoundTrip:
    def test_no_payload(self):
        msg = Message(sender=3, receiver=9, kind="feed-me", size_bytes=64)
        out = roundtrip(msg)
        assert (out.sender, out.receiver, out.kind, out.size_bytes) == (3, 9, "feed-me", 64)
        assert out.payload is None

    def test_propose_payload(self):
        msg = Message(
            sender=1,
            receiver=2,
            kind="propose",
            size_bytes=200,
            payload=ProposePayload(packet_ids=(0, 5, 17, 4000000000)),
        )
        out = roundtrip(msg)
        assert isinstance(out.payload, ProposePayload)
        assert out.payload.packet_ids == (0, 5, 17, 4000000000)

    def test_request_payload(self):
        msg = Message(
            sender=1,
            receiver=2,
            kind="request",
            size_bytes=100,
            payload=RequestPayload(packet_ids=(7,)),
        )
        out = roundtrip(msg)
        assert isinstance(out.payload, RequestPayload)
        assert out.payload.packet_ids == (7,)

    def test_crafted_empty_id_list_rejected(self):
        # An empty PROPOSE violates the payload invariant; a datagram
        # crafted to carry one must fail as a CodecError, not a raw
        # ValueError escaping into the receive path.
        msg = Message(
            sender=0, receiver=1, kind="propose", size_bytes=200,
            payload=ProposePayload((9,)),
        )
        wire = bytearray(encode_message(msg))
        id_list_offset = wire.index(b"propose") + len(b"propose")
        wire[id_list_offset : id_list_offset + 2] = b"\x00\x00"
        with pytest.raises(CodecError):
            decode_message(bytes(wire))

    def test_serve_payload_without_raw_bytes(self):
        msg = Message(
            sender=4,
            receiver=6,
            kind="serve",
            size_bytes=1100,
            payload=ServePayload(packet=ServedPacket(packet_id=42, size_bytes=1000)),
        )
        out = roundtrip(msg)
        assert out.payload.packet.packet_id == 42
        assert out.payload.packet.size_bytes == 1000
        assert out.payload.packet.payload is None

    def test_serve_payload_with_raw_bytes(self):
        raw = bytes(range(256)) * 2
        msg = Message(
            sender=4,
            receiver=6,
            kind="serve",
            size_bytes=1100,
            payload=ServePayload(
                packet=ServedPacket(packet_id=1, size_bytes=len(raw), payload=raw)
            ),
        )
        out = roundtrip(msg)
        assert out.payload.packet.payload == raw

    def test_feed_me_payload(self):
        msg = Message(
            sender=8,
            receiver=0,
            kind="feed-me",
            size_bytes=80,
            payload=FeedMePayload(requester=8),
        )
        out = roundtrip(msg)
        assert isinstance(out.payload, FeedMePayload)
        assert out.payload.requester == 8


class TestSizeHonesty:
    def test_datagram_padded_to_modeled_size(self):
        msg = Message(sender=0, receiver=1, kind="propose", size_bytes=500,
                      payload=ProposePayload((1, 2, 3)))
        assert len(encode_message(msg)) == 500

    def test_oversized_encoding_sent_unpadded(self):
        # Modeled size smaller than the structural encoding: wire length is
        # the real encoding length, and the declared size survives decoding.
        msg = Message(sender=0, receiver=1, kind="propose", size_bytes=1,
                      payload=ProposePayload(tuple(range(50))))
        wire = encode_message(msg)
        assert len(wire) > 1
        assert decode_message(wire).size_bytes == 1

    def test_udp_ceiling_enforced(self):
        raw = b"x" * (MAX_DATAGRAM_BYTES + 100)
        msg = Message(
            sender=0,
            receiver=1,
            kind="serve",
            size_bytes=100,
            payload=ServePayload(
                packet=ServedPacket(packet_id=0, size_bytes=len(raw), payload=raw)
            ),
        )
        with pytest.raises(CodecError):
            encode_message(msg)


class TestRobustness:
    def test_unknown_payload_type_rejected(self):
        msg = Message(sender=0, receiver=1, kind="weird", size_bytes=10, payload=object())
        with pytest.raises(CodecError):
            encode_message(msg)

    def test_short_datagram_rejected(self):
        with pytest.raises(CodecError):
            decode_message(b"RN")

    def test_bad_magic_rejected(self):
        wire = bytearray(encode_message(Message(sender=0, receiver=1, kind="x", size_bytes=64)))
        wire[0:2] = b"XX"
        with pytest.raises(CodecError):
            decode_message(bytes(wire))

    def test_bad_version_rejected(self):
        wire = bytearray(encode_message(Message(sender=0, receiver=1, kind="x", size_bytes=64)))
        wire[2] = 99
        with pytest.raises(CodecError):
            decode_message(bytes(wire))

    def test_invalid_utf8_kind_rejected(self):
        wire = bytearray(encode_message(Message(sender=0, receiver=1, kind="xy", size_bytes=64)))
        wire[17:19] = b"\xff\xfe"  # the kind tag follows the 17-byte header
        with pytest.raises(CodecError):
            decode_message(bytes(wire))

    def test_truncated_payload_rejected(self):
        msg = Message(sender=0, receiver=1, kind="propose", size_bytes=1,
                      payload=ProposePayload(tuple(range(20))))
        wire = encode_message(msg)
        with pytest.raises(CodecError):
            decode_message(wire[: len(wire) // 2])

    @pytest.mark.parametrize(("field", "message"), OVERFLOWING_MESSAGES)
    def test_field_beyond_its_wire_width_is_named(self, field, message):
        # encode runs inside an event-loop callback: the failure must be the
        # codec's own error naming the field, never a bare struct.error.
        with pytest.raises(CodecError, match=field):
            encode_message(message)

    def test_id_count_beyond_u16_is_named(self):
        payload = ProposePayload(tuple(range(0x10000)))
        with pytest.raises(CodecError, match="id count 65536"):
            encode_message(Message(0, 1, "propose", 100, payload))

    def test_mutated_datagrams_raise_only_codec_error(self):
        rng = random.Random(2009)
        datagrams = [encode_message(message) for *_, message in six_kind_batch()]
        for _ in range(5000):
            data = rng.choice(datagrams)
            for _ in range(rng.randrange(1, 4)):
                data = mutate(data, rng)
            try:
                assert isinstance(decode_message(data), Message)
            except CodecError:
                pass
