"""Wire-format exactness: ``decode(encode(batch))`` is the identity.

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
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.messages import (
    FEED_ME,
    PROPOSE,
    REQUEST,
    SERVE,
    FeedMePayload,
    ProposePayload,
    RequestPayload,
    ServedPacket,
    ServePayload,
)
from repro.network.message import Message
from repro.shard.wire import (
    WireBatch,
    WireFormatError,
    decode_batch,
    encode_batch,
    iter_headers,
    merge_inbound,
)

U32_MAX = 0xFFFFFFFF
node_ids = st.integers(min_value=0, max_value=U32_MAX)
sizes = st.integers(min_value=1, max_value=U32_MAX)
seqs = st.integers(min_value=0, max_value=U32_MAX)
times = st.floats(allow_nan=False)
packet_id_tuples = st.lists(node_ids, min_size=1, max_size=8).map(tuple)

payloads = st.one_of(
    st.none(),
    st.builds(ProposePayload, packet_ids=packet_id_tuples),
    st.builds(RequestPayload, packet_ids=packet_id_tuples),
    st.builds(
        ServePayload,
        st.builds(
            ServedPacket,
            packet_id=node_ids,
            size_bytes=sizes,
            payload=st.one_of(st.none(), st.binary(max_size=64)),
        ),
    ),
    st.builds(FeedMePayload, requester=node_ids),
)

foreign_payloads = st.one_of(
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=3),
    st.lists(st.binary(max_size=8), max_size=3).map(tuple),
)

kinds = st.one_of(
    st.sampled_from((PROPOSE, REQUEST, SERVE, FEED_ME)),
    st.text(min_size=1, max_size=12),
)

messages = st.builds(
    Message,
    sender=node_ids,
    receiver=node_ids,
    kind=kinds,
    size_bytes=sizes,
    payload=payloads,
)


@st.composite
def routed_datagrams(draw):
    # The router invariant: the datagram's sender column is the message's
    # sender (it sets ``(deliver_time, message.sender, seq, message)``).
    message = draw(messages)
    return (draw(times), message.sender, draw(seqs), message)


batches = st.lists(routed_datagrams(), max_size=24)


class TestWireRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(batch=batches)
    def test_decode_encode_is_identity(self, batch):
        encoded = encode_batch(batch)
        assert len(encoded) == len(batch)
        assert decode_batch(encoded) == batch

    @settings(max_examples=50, deadline=None)
    @given(batch=batches)
    def test_pickled_wire_batch_is_lossless(self, batch):
        encoded = encode_batch(batch)
        shipped = pickle.loads(pickle.dumps(encoded, protocol=5))
        assert isinstance(shipped, WireBatch)
        assert shipped == encoded
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
