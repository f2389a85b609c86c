"""Wire-format exactness: ``decode(encode(x))`` is the identity, in both formats.

The compact cross-shard encoding (:mod:`repro.shard.wire`) claims *exact*
reconstruction — same delivery floats, same ``Message`` field values, same
payload dataclasses — because the shard parity contract is byte-identity,
not approximation.  This suite drives the claim with hypothesis over every
protocol payload shape (PROPOSE / REQUEST / SERVE with and without payload
bytes / FEED_ME / bare ``None``), checks that a foreign payload type is
refused by name rather than pickled, and checks the two batch-level
guarantees the runner builds on: pickling a
:class:`~repro.shard.wire.WireBatch` is lossless, and ``merge_inbound``
reproduces the total order ``(deliver_time, sender, seq)`` no matter how a
window's traffic was split into batches.

The UDP datagram codec (:mod:`repro.realnet.codec`) frames the same payload
table, so the same strategies drive its round trip, and one fuzz covers both
decoders: arbitrary or corrupted input yields a decoded value or the format's
named error, never anything else.
"""

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.message import Message
from repro.realnet.codec import MAX_DATAGRAM_BYTES, decode_message, encode_message
from repro.realnet.errors import CodecError
from repro.shard.wire import (
    WireBatch,
    WireFormatError,
    decode_batch,
    encode_batch,
    iter_headers,
    merge_inbound,
)
from tests.wire_strategies import (
    batches,
    foreign_payloads,
    messages,
    mutate,
    routed_datagrams,
)


class TestWireRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(batch=batches)
    def test_decode_encode_is_identity(self, batch):
        encoded = encode_batch(batch)
        assert encoded.count == len(batch)
        assert decode_batch(encoded) == batch

    @settings(max_examples=50, deadline=None)
    @given(batch=batches)
    def test_pickled_wire_batch_is_lossless(self, batch):
        encoded = encode_batch(batch)
        shipped = pickle.loads(pickle.dumps(encoded, protocol=5))
        assert isinstance(shipped, WireBatch)
        assert shipped.__getstate__() == encoded.__getstate__()
        assert decode_batch(shipped) == batch

    @settings(max_examples=50, deadline=None)
    @given(batch=batches)
    def test_headers_match_without_decoding(self, batch):
        headers = list(iter_headers(encode_batch(batch)))
        assert headers == [
            (deliver_time, sender, seq, message.receiver)
            for deliver_time, sender, seq, message in batch
        ]

    @settings(max_examples=50, deadline=None)
    @given(batch=batches, cut=st.integers(min_value=0, max_value=24))
    def test_merge_inbound_restores_total_order_across_formats(self, batch, cut):
        # Split one window's traffic into two encoded batches: the merged
        # result must equal the sorted whole — delivery order may not depend
        # on how the coordinator concatenated the batches.
        cut = min(cut, len(batch))
        pieces = [encode_batch(batch[:cut]), encode_batch(batch[cut:])]
        merged = merge_inbound(pieces)
        assert merged == sorted(batch, key=lambda datagram: datagram[:3])

    @settings(max_examples=50, deadline=None)
    @given(batch=batches, datagram=routed_datagrams(), payload=foreign_payloads)
    def test_foreign_payload_type_is_refused_by_name(self, batch, datagram, payload):
        deliver_time, sender, seq, message = datagram
        foreign = Message(sender, message.receiver, message.kind, message.size_bytes, payload)
        with pytest.raises(WireFormatError, match=type(payload).__name__):
            encode_batch(batch + [(deliver_time, sender, seq, foreign)])


class TestDatagramRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(message=messages(max_size_bytes=MAX_DATAGRAM_BYTES))
    def test_decode_encode_is_identity(self, message):
        assert decode_message(encode_message(message)) == message


class TestHostileInput:
    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=96))
    def test_arbitrary_bytes_decode_or_raise_codec_error(self, data):
        try:
            assert isinstance(decode_message(data), Message)
        except CodecError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(
        message=messages(max_size_bytes=256),
        seed=st.integers(0, 2**32),
        rounds=st.integers(1, 4),
    )
    def test_corrupted_datagram_decodes_or_raises_codec_error(self, message, seed, rounds):
        rng = random.Random(seed)
        data = encode_message(message)
        for _ in range(rounds):
            data = mutate(data, rng)
        try:
            assert isinstance(decode_message(data), Message)
        except CodecError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(
        batch=batches,
        column=st.sampled_from(("head", "aux", "ids", "blob")),
        seed=st.integers(0, 2**32),
        rounds=st.integers(1, 4),
    )
    def test_corrupted_batch_decodes_or_raises_wire_format_error(self, batch, column, seed, rounds):
        rng = random.Random(seed)
        encoded = encode_batch(batch)
        data = getattr(encoded, column)
        for _ in range(rounds):
            data = mutate(data, rng)
        setattr(encoded, column, data)
        try:
            assert isinstance(decode_batch(encoded), list)
        except WireFormatError as error:
            assert str(error).startswith("corrupt wire batch: ")
