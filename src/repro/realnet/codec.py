"""Binary datagram codec for the real-network backend.

Every :class:`~repro.network.message.Message` crossing a real UDP socket is
encoded with :func:`encode_message` and rebuilt with :func:`decode_message`.
The format is deliberately boring — fixed-width struct fields, no pickling
(a UDP socket is an untrusted input even on localhost) — and *size-honest*:
the wire datagram is padded with zeros up to the message's modeled
``size_bytes``, so the bytes the kernel actually moves match the bytes the
upload limiter charged.

Layout (network byte order)::

    magic   2s   b"RN"
    version B    1
    ptag    B    payload tag (see below)
    sender  I
    receiver I
    size    I    modeled size_bytes (also the padded datagram length)
    klen    B    length of the kind tag
    kind    {klen}s
    ...payload fields, then zero padding up to ``size``

Payload encodings by tag:

===  ====================  ==============================================
tag  payload type          fields
===  ====================  ==============================================
0    ``None``              —
1    ``ProposePayload``    count ``H``, then count × packet id ``I``
2    ``RequestPayload``    count ``H``, then count × packet id ``I``
3    ``ServePayload``      packet id ``I``, size ``I``, flag ``B``
                           (+ length-prefixed raw bytes when flag is 1)
4    ``FeedMePayload``     requester ``I``
===  ====================  ==============================================

A message whose encoding is *larger* than its modeled size (tiny modeled
sizes with huge id lists — not produced by the shipped protocols) is sent
unpadded at its real length; the receiver trusts the declared field
lengths, never the datagram length.
"""

from __future__ import annotations

import struct
from typing import Tuple

from repro.core.messages import (
    FeedMePayload,
    ProposePayload,
    RequestPayload,
    ServePayload,
    ServedPacket,
)
from repro.network.message import Message

from repro.realnet.errors import CodecError

MAGIC = b"RN"
VERSION = 1

_HEADER = struct.Struct("!2sBBIIIB")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_SERVE = struct.Struct("!IIB")

_TAG_NONE = 0
_TAG_PROPOSE = 1
_TAG_REQUEST = 2
_TAG_SERVE = 3
_TAG_FEED_ME = 4

MAX_DATAGRAM_BYTES = 65507
"""Hard IPv4 UDP payload ceiling; encodings beyond this cannot be sent."""


def encode_message(message: Message) -> bytes:
    """Encode one message to its wire datagram (padded to ``size_bytes``)."""
    kind = message.kind.encode("utf-8")
    if len(kind) > 255:
        raise CodecError(f"kind tag too long to encode: {message.kind!r}")
    payload = message.payload
    if payload is None:
        tag, body = _TAG_NONE, b""
    elif isinstance(payload, ProposePayload):
        tag, body = _TAG_PROPOSE, _encode_id_list(payload.packet_ids)
    elif isinstance(payload, RequestPayload):
        tag, body = _TAG_REQUEST, _encode_id_list(payload.packet_ids)
    elif isinstance(payload, ServePayload):
        tag, body = _TAG_SERVE, _encode_serve(payload)
    elif isinstance(payload, FeedMePayload):
        tag, body = _TAG_FEED_ME, _U32.pack(payload.requester)
    else:
        raise CodecError(
            f"cannot encode payload of type {type(payload).__name__}; the realnet "
            f"codec supports the repro.core.messages payload classes only"
        )
    header = _HEADER.pack(
        MAGIC, VERSION, tag, message.sender, message.receiver, message.size_bytes, len(kind)
    )
    wire = header + kind + body
    if len(wire) < message.size_bytes:
        wire = wire + b"\x00" * (message.size_bytes - len(wire))
    if len(wire) > MAX_DATAGRAM_BYTES:
        raise CodecError(
            f"encoded datagram is {len(wire)} bytes, above the UDP ceiling "
            f"of {MAX_DATAGRAM_BYTES}"
        )
    return wire


def decode_message(data: bytes) -> Message:
    """Decode one wire datagram back into a :class:`Message`."""
    if len(data) < _HEADER.size:
        raise CodecError(f"datagram of {len(data)} bytes is shorter than the header")
    magic, version, tag, sender, receiver, size_bytes, klen = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CodecError(f"bad magic {magic!r}")
    if version != VERSION:
        raise CodecError(f"unsupported wire version {version}")
    offset = _HEADER.size
    kind_bytes, offset = _take(data, offset, klen)
    try:
        kind = kind_bytes.decode("utf-8")
        if tag == _TAG_NONE:
            payload: object = None
        elif tag in (_TAG_PROPOSE, _TAG_REQUEST):
            ids, offset = _decode_id_list(data, offset)
            payload = ProposePayload(ids) if tag == _TAG_PROPOSE else RequestPayload(ids)
        elif tag == _TAG_SERVE:
            payload, offset = _decode_serve(data, offset)
        elif tag == _TAG_FEED_ME:
            (requester,), offset = _unpack(_U32, data, offset)
            payload = FeedMePayload(requester)
        else:
            raise CodecError(f"unknown payload tag {tag}")
        return Message(
            sender=sender, receiver=receiver, kind=kind, size_bytes=size_bytes, payload=payload
        )
    except ValueError as exc:
        # Field values a crafted datagram can reach (a kind that is not
        # UTF-8, an empty id list, a zero size) fail the decode or the
        # payload/message invariants — surface them as codec errors, never
        # raw ValueErrors, to the receive path.
        raise CodecError(f"decoded message is invalid: {exc}") from exc


# ----------------------------------------------------------------------
# Field helpers
# ----------------------------------------------------------------------
def _encode_id_list(packet_ids: Tuple[int, ...]) -> bytes:
    if len(packet_ids) > 0xFFFF:
        raise CodecError(f"id list of {len(packet_ids)} entries exceeds the u16 count")
    return _U16.pack(len(packet_ids)) + b"".join(_U32.pack(pid) for pid in packet_ids)


def _encode_serve(payload: ServePayload) -> bytes:
    packet = payload.packet
    raw = packet.payload
    body = _SERVE.pack(packet.packet_id, packet.size_bytes, 0 if raw is None else 1)
    if raw is not None:
        body += _U32.pack(len(raw)) + raw
    return body


def _decode_id_list(data: bytes, offset: int) -> Tuple[Tuple[int, ...], int]:
    (count,), offset = _unpack(_U16, data, offset)
    ids = []
    for _ in range(count):
        (pid,), offset = _unpack(_U32, data, offset)
        ids.append(pid)
    return tuple(ids), offset


def _decode_serve(data: bytes, offset: int) -> Tuple[ServePayload, int]:
    (packet_id, size_bytes, flag), offset = _unpack(_SERVE, data, offset)
    raw = None
    if flag:
        (length,), offset = _unpack(_U32, data, offset)
        raw, offset = _take(data, offset, length)
    packet = ServedPacket(packet_id=packet_id, size_bytes=size_bytes, payload=raw)
    return ServePayload(packet=packet), offset


def _unpack(fmt: struct.Struct, data: bytes, offset: int):
    if offset + fmt.size > len(data):
        raise CodecError("datagram truncated mid-field")
    return fmt.unpack_from(data, offset), offset + fmt.size


def _take(data: bytes, offset: int, length: int) -> Tuple[bytes, int]:
    if offset + length > len(data):
        raise CodecError("datagram truncated mid-field")
    return data[offset : offset + length], offset + length


__all__ = ["MAX_DATAGRAM_BYTES", "decode_message", "encode_message"]
