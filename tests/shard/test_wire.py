"""Unit tests for the compact wire format: layout limits, payload tags, stats.

The round-trip property suite (``tests/properties/test_wire_roundtrip``)
pins exactness; these tests pin the edges the fuzzer rarely lands on — head
fields that overflow the fixed-width columns, the payloads no tag carries,
the corrupt-tag error path — and the size claim the whole tentpole exists for:
a typical protocol batch serializes at least 2x smaller than pickling the
equivalent ``Message`` objects.
"""

import pickle
import random

import pytest

from repro.core.messages import ProposePayload, ServePayload
from repro.network.message import Message
from repro.shard.wire import (
    WireBatch,
    WireFormatError,
    WireStats,
    decode_batch,
    encode_batch,
)
from tests.wire_strategies import OVERFLOWING_MESSAGES, every_tag_batch, mutate


def datagram(deliver_time=1.0, sender=0, seq=1, receiver=1, kind="propose", payload=None):
    message = Message(sender, receiver, kind, 100, payload)
    return (deliver_time, sender, seq, message)


class TestLayoutLimits:
    def test_empty_batch_round_trips(self):
        encoded = encode_batch([])
        assert encoded.count == 0
        assert encoded.kinds == ()
        assert decode_batch(encoded) == []

    def test_sender_beyond_u32_rejected(self):
        with pytest.raises(WireFormatError, match="sender"):
            encode_batch([datagram(sender=2**32)])

    def test_huge_seq_values_fit_via_delta_encoding(self):
        # Sequence numbers are a lifetime counter: absolute values beyond
        # u32 are fine as long as the spread inside one batch stays narrow.
        batch = [datagram(seq=2**40 + offset) for offset in range(3)]
        assert decode_batch(encode_batch(batch)) == batch

    def test_seq_spread_beyond_u32_rejected(self):
        with pytest.raises(WireFormatError, match="seq delta"):
            encode_batch([datagram(seq=0), datagram(seq=2**32)])

    def test_size_beyond_u32_rejected(self):
        bloated = (1.0, 0, 1, Message(0, 1, "serve", 2**32))
        with pytest.raises(WireFormatError, match="size_bytes"):
            encode_batch([bloated])

    def test_kind_table_overflow_rejected(self):
        batch = [datagram(seq=i, kind=f"kind-{i}") for i in range(257)]
        with pytest.raises(WireFormatError, match="256 distinct message kinds"):
            encode_batch(batch)

    # Tags 4 and 5 once framed a SERVE with content bytes and a FEED_ME's
    # requester; no encoder writes them now.
    @pytest.mark.parametrize("tag", [4, 5, 200])
    def test_corrupt_tag_rejected_on_decode(self, tag):
        encoded = encode_batch([datagram(kind="serve", payload=ServePayload(7))])
        # The payload tag is the last byte of the (single) head record.
        head = bytearray(encoded.head)
        head[-1] = tag
        corrupt = WireBatch(
            encoded.count,
            encoded.kinds,
            encoded.seq_base,
            encoded.widths,
            bytes(head),
            encoded.aux,
            encoded.ids,
        )
        with pytest.raises(WireFormatError, match=f"unknown payload tag {tag}"):
            decode_batch(corrupt)

    def test_mutated_columns_raise_only_wire_format_error(self):
        rng = random.Random(2009)
        batch = every_tag_batch()
        assert decode_batch(encode_batch(batch)) == batch
        for _ in range(5000):
            encoded = encode_batch(batch)
            column = rng.choice(("head", "aux", "ids"))
            data = getattr(encoded, column)
            for _ in range(rng.randrange(1, 4)):
                data = mutate(data, rng)
            setattr(encoded, column, data)
            try:
                assert isinstance(decode_batch(encoded), list)
            except WireFormatError as error:
                assert str(error).startswith("corrupt wire batch: ")

    @pytest.mark.parametrize(("field", "message"), OVERFLOWING_MESSAGES)
    def test_field_beyond_uint32_is_named(self, field, message):
        with pytest.raises(WireFormatError, match=field):
            encode_batch([(1.0, message.sender, 1, message)])


class TestPayloadTags:
    @pytest.mark.parametrize(
        "payload",
        [
            {"window": 3, "bitmap": b"\x01"},  # a type no tag carries
            ProposePayload((2**40,)),  # the id column is u32
        ],
        ids=["dict", "ProposePayload"],
    )
    def test_untagged_payload_is_refused_by_name(self, payload):
        with pytest.raises(WireFormatError, match=f"payload of type {type(payload).__name__}"):
            encode_batch([datagram(kind="custom", payload=payload)])

    def test_serve_and_feed_me_round_trip(self):
        batch = [
            datagram(seq=1, kind="serve", payload=ServePayload(7)),
            datagram(seq=2, kind="feed-me"),
        ]
        encoded = encode_batch(batch)
        assert decode_batch(encoded) == batch
        # One aux scalar (the served packet id) and no id vector for either.
        assert (encoded.aux, encoded.ids) == (bytes([7]), b"")


class TestWireStats:
    def test_accumulates_and_resets(self):
        stats = WireStats()
        stats.record_window(2, 10, 500)
        stats.record_window(1, 5, 200)
        assert stats.snapshot() == {
            "windows": 2,
            "batches": 3,
            "datagrams": 15,
            "wire_bytes": 700,
        }
        stats.reset()
        assert stats.snapshot()["windows"] == 0


class TestSizeClaim:
    def test_typical_protocol_batch_is_at_least_2x_smaller_than_pickle(self):
        # A realistic window mix: propose/request bursts and serve streams,
        # the three kinds that dominate cross-shard traffic in every
        # registered scenario.
        batch = []
        seq = 0
        for sender in range(8):
            for receiver in range(8, 12):
                seq += 1
                batch.append(
                    (
                        0.5 + seq * 0.01,
                        sender,
                        seq,
                        Message(
                            sender,
                            receiver,
                            "propose",
                            120,
                            ProposePayload(tuple(range(seq, seq + 5))),
                        ),
                    )
                )
                seq += 1
                batch.append(
                    (
                        0.6 + seq * 0.01,
                        sender,
                        seq,
                        Message(
                            sender,
                            receiver,
                            "serve",
                            1340,
                            ServePayload(seq),
                        ),
                    )
                )
                seq += 1
                batch.append(
                    (
                        0.7 + seq * 0.01,
                        sender,
                        seq,
                        Message(sender, receiver, "feed-me", 64),
                    )
                )
        encoded = encode_batch(batch)
        pickled = len(pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL))
        assert decode_batch(encoded) == batch
        # The acceptance bar: >= 2x fewer serialized bytes per datagram.
        assert encoded.nbytes * 2 <= pickled, (
            f"compact={encoded.nbytes}B pickle={pickled}B "
            f"ratio={pickled / encoded.nbytes:.2f}"
        )
