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
    version B    2
    ptag    B    payload tag (:data:`repro.core.messages.PAYLOAD_LAYOUT`)
    sender  I
    receiver I
    size    I    modeled size_bytes (also the padded datagram length)
    klen    B    length of the kind tag
    kind    {klen}s
    ...payload parts, then zero padding up to ``size``

What a tag carries is the one payload table beside the payload classes
(:func:`repro.core.messages.pack_payload`); this module only frames the
parts, in table order: each scalar ``I``; for a tag with a packet-id vector,
count ``H`` then count × ``I``; for a tag with a blob, length ``I`` then the
raw bytes.

A message whose encoding is *larger* than its modeled size (tiny modeled
sizes with huge id lists — not produced by the shipped protocols) is sent
unpadded at its real length; the receiver trusts the declared field
lengths, never the datagram length.
"""

from __future__ import annotations

import struct
from typing import Tuple

from repro.core.messages import (
    PAYLOAD_LAYOUT,
    EncodeError,
    check_u32,
    pack_payload,
    unpack_payload,
)
from repro.network.message import Message

from repro.realnet.errors import CodecError

MAGIC = b"RN"
VERSION = 2

_HEADER = struct.Struct("!2sBBIIIB")

MAX_DATAGRAM_BYTES = 65507
"""Hard IPv4 UDP payload ceiling; encodings beyond this cannot be sent."""


def encode_message(message: Message) -> bytes:
    """Encode one message to its wire datagram (padded to ``size_bytes``).

    Raises :class:`CodecError`, naming the field, for anything the layout
    cannot hold — never a bare ``struct.error`` (the caller is an event-loop
    callback).
    """
    kind = message.kind.encode("utf-8")
    if len(kind) > 255:
        raise CodecError(f"kind tag too long to encode: {message.kind!r}")
    try:
        tag, scalars, packet_ids, blob = pack_payload(message.payload)
        header = _HEADER.pack(
            MAGIC,
            VERSION,
            tag,
            check_u32("sender", message.sender),
            check_u32("receiver", message.receiver),
            check_u32("size_bytes", message.size_bytes),
            len(kind),
        )
    except EncodeError as exc:
        raise CodecError(f"cannot encode datagram: {exc}") from exc
    parts = [header, kind, struct.pack(f"!{len(scalars)}I", *scalars)]
    _, has_ids, has_blob = PAYLOAD_LAYOUT[tag]
    if has_ids:
        if len(packet_ids) > 0xFFFF:
            raise CodecError(f"id count {len(packet_ids)} exceeds the u16 count field")
        parts.append(struct.pack(f"!H{len(packet_ids)}I", len(packet_ids), *packet_ids))
    if has_blob:
        parts.append(struct.pack("!I", len(blob)))
        parts.append(blob)
    wire = b"".join(parts)
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
    layout = PAYLOAD_LAYOUT.get(tag)
    if layout is None:
        raise CodecError(f"unknown payload tag {tag}")
    scalar_count, has_ids, has_blob = layout
    packet_ids: Tuple[int, ...] = ()
    blob = None
    try:
        (kind_bytes,) = struct.unpack_from(f"!{klen}s", data, _HEADER.size)
        offset = _HEADER.size + klen
        scalars = struct.unpack_from(f"!{scalar_count}I", data, offset)
        offset += 4 * scalar_count
        if has_ids:
            (count,) = struct.unpack_from("!H", data, offset)
            packet_ids = struct.unpack_from(f"!{count}I", data, offset + 2)
            offset += 2 + 4 * count
        if has_blob:
            (length,) = struct.unpack_from("!I", data, offset)
            (blob,) = struct.unpack_from(f"!{length}s", data, offset + 4)
        return Message(
            sender=sender,
            receiver=receiver,
            kind=kind_bytes.decode("utf-8"),
            size_bytes=size_bytes,
            payload=unpack_payload(tag, scalars, packet_ids, blob),
        )
    except (struct.error, ValueError) as exc:
        # What a crafted datagram can reach — a field running off the end, a
        # kind that is not UTF-8, an empty id list, a zero size — surfaces as
        # a codec error, never a raw exception, to the receive path.
        raise CodecError(f"cannot decode datagram: {exc}") from exc


__all__ = ["MAX_DATAGRAM_BYTES", "decode_message", "encode_message"]
