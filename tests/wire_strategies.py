"""Shared message/payload inputs for the two wire formats' test suites.

:mod:`repro.realnet.codec` and :mod:`repro.shard.wire` frame the same
payload table (:mod:`repro.core.messages`), so their round-trip, fuzz and
range-policy tests draw from one set of hypothesis strategies and one list
of out-of-range messages.
"""

import random

import pytest
from hypothesis import strategies as st

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


def messages(max_size_bytes=U32_MAX):
    """Messages of every payload shape; the UDP codec pads to ``size_bytes``, so it caps it."""
    return st.builds(
        Message,
        sender=node_ids,
        receiver=node_ids,
        kind=kinds,
        size_bytes=st.integers(min_value=1, max_value=max_size_bytes),
        payload=payloads,
    )


@st.composite
def routed_datagrams(draw):
    # The router invariant: the datagram's sender column is the message's
    # sender (it sets ``(deliver_time, message.sender, seq, message)``).
    message = draw(messages())
    return (draw(times), message.sender, draw(seqs), message)


batches = st.lists(routed_datagrams(), max_size=24)


def six_kind_batch():
    """One routed datagram per payload tag (``None``, PROPOSE, REQUEST, both SERVEs, FEED_ME)."""
    tagged = [
        (PROPOSE, None),
        (PROPOSE, ProposePayload((3, 70_000, 9))),
        (REQUEST, RequestPayload((70_000,))),
        (SERVE, ServePayload(ServedPacket(7, 1200))),
        (SERVE, ServePayload(ServedPacket(8, 1200, b"content-bytes"))),
        (FEED_ME, FeedMePayload(5)),
    ]
    return [
        (0.25 * seq, 5, seq, Message(5, 300 + seq, kind, 100 + seq, payload))
        for seq, (kind, payload) in enumerate(tagged, start=1)
    ]


def mutate(data: bytes, rng: random.Random) -> bytes:
    """One random corruption: flip a byte, cut a tail, or append a byte."""
    choice = rng.randrange(3)
    if choice == 0 and data:
        at = rng.randrange(len(data))
        return data[:at] + bytes([rng.randrange(256)]) + data[at + 1 :]
    if choice == 1 and data:
        return data[: rng.randrange(len(data))]
    return data + bytes([rng.randrange(256)])


#: ``(field the error must name, message no format can carry)`` — each holds
#: one value beyond the uint32 its field is framed as, in both formats.
OVERFLOWING_MESSAGES = [
    pytest.param("sender", Message(2**32, 1, PROPOSE, 100), id="sender"),
    pytest.param("receiver", Message(0, 2**32, PROPOSE, 100), id="receiver"),
    pytest.param("size_bytes", Message(0, 1, SERVE, 2**32), id="size_bytes"),
    pytest.param(
        "packet id",
        Message(0, 1, PROPOSE, 100, ProposePayload((4, 2**32))),
        id="propose-packet-id",
    ),
    pytest.param(
        "packet id",
        Message(0, 1, REQUEST, 100, RequestPayload((2**40,))),
        id="request-packet-id",
    ),
    pytest.param(
        "served packet id",
        Message(0, 1, SERVE, 100, ServePayload(ServedPacket(2**33, 10))),
        id="served-packet-id",
    ),
    pytest.param(
        "served packet size_bytes",
        Message(0, 1, SERVE, 100, ServePayload(ServedPacket(1, 2**32))),
        id="served-packet-size",
    ),
    pytest.param("requester", Message(0, 1, FEED_ME, 100, FeedMePayload(2**32)), id="requester"),
]
