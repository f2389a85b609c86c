"""Protocol message payloads.

Algorithm 1 exchanges three message types plus the optional feed-me request
used by the ``Y`` proactiveness mechanism:

* ``[PROPOSE, event ids]`` — phase 1, push of packet ids;
* ``[REQUEST, wanted ids]`` — phase 2, pull of missing packets;
* ``[SERVE, events]`` — phase 3, push of the actual packet payloads;
* ``[FEED_ME]`` — a request to be inserted into the receiver's partner set.

The network layer only sees opaque payloads with a ``kind`` string and a wire
size; these dataclasses are the typed payloads the protocol puts inside, and
the four ``*_size`` functions give the wire size the upload limiter charges.
The paper never itemizes header sizes, so they are conventional UDP/IPv4
figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.streaming.packets import PacketId

PROPOSE = "propose"
"""Message kind tag for phase-1 id announcements."""

REQUEST = "request"
"""Message kind tag for phase-2 pulls."""

SERVE = "serve"
"""Message kind tag for phase-3 payload pushes."""

FEED_ME = "feed-me"
"""Message kind tag for the Y-mechanism view-insertion requests."""

HEADER_BYTES = 40
"""Fixed per-datagram overhead (IP + UDP + application header)."""

ID_BYTES = 8
"""Bytes naming one packet id inside a PROPOSE or REQUEST."""

SERVED_PACKET_OVERHEAD_BYTES = 16
"""Application framing added to the stream packet inside a SERVE."""


def propose_size(num_ids: int) -> int:
    """Size of a PROPOSE datagram advertising ``num_ids`` packet ids."""
    return HEADER_BYTES + num_ids * ID_BYTES


def request_size(num_ids: int) -> int:
    """Size of a REQUEST datagram asking for ``num_ids`` packet ids."""
    return HEADER_BYTES + num_ids * ID_BYTES


def serve_size(payload_bytes: int) -> int:
    """Size of a SERVE datagram carrying one stream packet of ``payload_bytes``."""
    return HEADER_BYTES + SERVED_PACKET_OVERHEAD_BYTES + payload_bytes


def feed_me_size() -> int:
    """Size of a FEED_ME datagram (header only)."""
    return HEADER_BYTES


@dataclass(frozen=True, slots=True)
class ProposePayload:
    """Phase 1: the sender advertises packet ids it can serve."""

    packet_ids: Tuple[PacketId, ...]

    def __post_init__(self) -> None:
        if not self.packet_ids:
            raise ValueError("a PROPOSE must advertise at least one packet id")


@dataclass(frozen=True, slots=True)
class RequestPayload:
    """Phase 2: the sender pulls the packets it is missing."""

    packet_ids: Tuple[PacketId, ...]

    def __post_init__(self) -> None:
        if not self.packet_ids:
            raise ValueError("a REQUEST must ask for at least one packet id")


@dataclass(frozen=True, slots=True)
class ServedPacket:
    """One stream packet carried inside a SERVE message.

    The simulator normally carries no payload bytes (``payload is None``) and
    only tracks sizes; end-to-end examples using the real FEC codec set
    ``payload`` to the encoded shard.
    """

    packet_id: PacketId
    size_bytes: int
    payload: Optional[bytes] = None

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"served packet size must be positive, got {self.size_bytes!r}")


@dataclass(frozen=True, slots=True)
class ServePayload:
    """Phase 3: the actual packet content."""

    packet: ServedPacket


@dataclass(frozen=True, slots=True)
class FeedMePayload:
    """Ask the receiver to insert the sender into its partner view."""

    requester: int

    def __post_init__(self) -> None:
        if self.requester < 0:
            raise ValueError("requester id must be non-negative")


# ----------------------------------------------------------------------
# Wire schema
# ----------------------------------------------------------------------
# Both binary formats — the UDP datagram codec (repro.realnet.codec) and the
# columnar cross-shard batch (repro.shard.wire) — carry a payload as a tag,
# a few uint32 scalars, an optional packet-id vector and an optional byte
# blob.  What each tag carries is decided here, beside the classes; the
# formats only frame those four parts (header and padding there, adaptive
# column widths here).

U32_MAX = 0xFFFFFFFF

(
    TAG_NONE,
    TAG_PROPOSE,
    TAG_REQUEST,
    TAG_SERVE,
    TAG_SERVE_BLOB,
    TAG_FEED_ME,
) = range(6)

PAYLOAD_LAYOUT = {
    TAG_NONE: (0, False, False),
    TAG_PROPOSE: (0, True, False),
    TAG_REQUEST: (0, True, False),
    TAG_SERVE: (2, False, False),  # packet id, packet size
    TAG_SERVE_BLOB: (2, False, True),  # packet id, packet size + content
    TAG_FEED_ME: (1, False, False),  # requester
}
"""Per tag: ``(uint32 scalar count, has packet-id vector, has byte blob)``."""


class EncodeError(ValueError):
    """A message field or payload that neither wire format can carry."""


def check_u32(name: str, value: int) -> int:
    """``value`` if it is an ``int`` a uint32 field holds, else :class:`EncodeError`."""
    if type(value) is not int or not 0 <= value <= U32_MAX:
        raise EncodeError(f"{name} {value!r} does not fit uint32")
    return value


def pack_payload(payload: object) -> Tuple[int, Tuple[int, ...], Tuple[int, ...], Optional[bytes]]:
    """Split a payload into ``(tag, scalars, packet_ids, blob)``.

    Raises :class:`EncodeError`, naming the payload type, for a type no tag
    carries and for a field beyond uint32.
    """
    if payload is None:
        return TAG_NONE, (), (), None
    kind = type(payload)
    try:
        if kind is ProposePayload or kind is RequestPayload:
            packet_ids = payload.packet_ids
            check_u32("id count", len(packet_ids))
            for packet_id in packet_ids:
                check_u32("packet id", packet_id)
            return (TAG_PROPOSE if kind is ProposePayload else TAG_REQUEST), (), packet_ids, None
        if kind is ServePayload and type(payload.packet) is ServedPacket:
            packet = payload.packet
            scalars = (
                check_u32("served packet id", packet.packet_id),
                check_u32("served packet size_bytes", packet.size_bytes),
            )
            blob = packet.payload
            if blob is None:
                return TAG_SERVE, scalars, (), None
            if type(blob) is not bytes:
                raise EncodeError(f"served packet content is {type(blob).__name__}, not bytes")
            check_u32("served packet content length", len(blob))
            return TAG_SERVE_BLOB, scalars, (), blob
        if kind is FeedMePayload:
            return TAG_FEED_ME, (check_u32("requester", payload.requester),), (), None
    except EncodeError as exc:
        raise EncodeError(f"payload of type {kind.__name__}: {exc}") from None
    raise EncodeError(
        f"payload of type {kind.__name__} is not one of the repro.core.messages payload classes"
    )


def unpack_payload(
    tag: int, scalars: Tuple[int, ...], packet_ids: Tuple[int, ...], blob: Optional[bytes]
) -> object:
    """Inverse of :func:`pack_payload`; the parts must follow ``PAYLOAD_LAYOUT[tag]``.

    Raises ``ValueError`` for an unknown tag and for parts that break a
    payload invariant (an empty id vector, a zero packet size).
    """
    if tag == TAG_NONE:
        return None
    if tag == TAG_PROPOSE:
        return ProposePayload(packet_ids)
    if tag == TAG_REQUEST:
        return RequestPayload(packet_ids)
    if tag == TAG_SERVE or tag == TAG_SERVE_BLOB:
        packet_id, size_bytes = scalars
        return ServePayload(ServedPacket(packet_id, size_bytes, blob))
    if tag == TAG_FEED_ME:
        return FeedMePayload(*scalars)
    raise ValueError(f"unknown payload tag {tag}")
