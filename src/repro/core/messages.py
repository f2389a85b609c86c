"""Protocol message payloads.

Algorithm 1 exchanges three message types plus the optional feed-me request
used by the ``Y`` proactiveness mechanism:

* ``[PROPOSE, event ids]`` — phase 1, push of packet ids;
* ``[REQUEST, wanted ids]`` — phase 2, pull of missing packets;
* ``[SERVE, events]`` — phase 3, push of one stream packet;
* ``[FEED_ME]`` — a request to insert the sender into the receiver's
  partner set.

The eager-push baseline's ``[PUSH, event]`` carries what a SERVE does.

The network layer only sees opaque payloads with a ``kind`` string and a wire
size; these dataclasses are the typed payloads the protocol puts inside, and
the four ``*_size`` functions give the wire size the upload limiter charges.
A payload says nothing the datagram already says: a FEED_ME carries no
payload (its requester is ``Message.sender``), and a SERVE names only its
packet id (the packet's size is charged in ``Message.size_bytes``), so
one pair of size and payload per packet (:func:`serve_table`) serves every
copy.  On either wire format a payload is two parts, uint32 scalars and an
optional packet-id vector (:data:`PAYLOAD_LAYOUT`); :data:`KIND_PAYLOAD`
names the payload type of each kind.  The paper never itemizes
header sizes, so they are conventional UDP/IPv4 figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from repro.streaming.packets import PacketDescriptor, PacketId

PROPOSE = "propose"
"""Message kind tag for phase-1 id announcements."""

REQUEST = "request"
"""Message kind tag for phase-2 pulls."""

SERVE = "serve"
"""Message kind tag for phase-3 payload pushes."""

FEED_ME = "feed-me"
"""Message kind tag for the Y-mechanism view-insertion requests."""

PUSH = "push"
"""Message kind tag for the eager-push baseline's full-packet pushes
(:mod:`repro.protocols.eager_push`)."""

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
class ServePayload:
    """Phase 3: one stream packet, named by its id.

    The packet's size is the schedule's (``schedule.packet(id).size_bytes``)
    and is already charged in the datagram's ``size_bytes`` by
    :func:`serve_size`; the simulator carries no packet content.  Frozen,
    so one instance per packet (:func:`serve_table`) is shared by every
    datagram that serves it.
    """

    packet_id: PacketId


ServeTable = Tuple[Tuple[int, ServePayload], ...]
"""Per packet id (its index), the wire size and the payload of its SERVE."""


def serve_table(packets: Iterable[PacketDescriptor]) -> ServeTable:
    """One immutable ``(serve_size, ServePayload)`` pair per packet.

    ``packets`` are a schedule's (:meth:`StreamSchedule.packets`), whose ids
    run 0, 1, 2, ... in order, so the table is indexed by packet id.  Every
    SERVE (and eager-push PUSH) of a packet carries the same pair, so
    serving one builds no payload and computes no size.
    """
    return tuple(
        (serve_size(packet.size_bytes), ServePayload(packet.packet_id)) for packet in packets
    )


# ----------------------------------------------------------------------
# Wire schema
# ----------------------------------------------------------------------
# Both binary formats — the UDP datagram codec (repro.realnet.codec) and the
# columnar cross-shard batch (repro.shard.wire) — carry a payload as a tag,
# a few uint32 scalars and an optional packet-id vector.  What each tag
# carries is decided here, beside the classes; the formats only frame those
# two parts (header and padding there, adaptive column widths here).

U32_MAX = 0xFFFFFFFF

TAG_NONE, TAG_PROPOSE, TAG_REQUEST, TAG_SERVE = range(4)

PAYLOAD_LAYOUT = {
    TAG_NONE: (0, False),
    TAG_PROPOSE: (0, True),
    TAG_REQUEST: (0, True),
    TAG_SERVE: (1, False),  # packet id
}
"""Per tag: ``(uint32 scalar count, has packet-id vector)``."""

KIND_PAYLOAD: Dict[str, type] = {
    PROPOSE: ProposePayload,
    REQUEST: RequestPayload,
    SERVE: ServePayload,
    PUSH: ServePayload,
    FEED_ME: type(None),
}
"""The payload type each shipped message kind carries; a datagram of one of
these kinds with another payload is malformed (the realnet receiver counts
and drops it)."""


class EncodeError(ValueError):
    """A message field or payload that neither wire format can carry."""


def check_u32(name: str, value: int) -> int:
    """``value`` if it is an ``int`` a uint32 field holds, else :class:`EncodeError`."""
    if type(value) is not int or not 0 <= value <= U32_MAX:
        raise EncodeError(f"{name} {value!r} does not fit uint32")
    return value


def pack_payload(payload: object) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
    """Split a payload into ``(tag, scalars, packet_ids)``.

    Raises :class:`EncodeError`, naming the payload type, for a type no tag
    carries and for a field beyond uint32.
    """
    if payload is None:
        return TAG_NONE, (), ()
    kind = type(payload)
    try:
        if kind is ProposePayload or kind is RequestPayload:
            packet_ids = payload.packet_ids
            check_u32("id count", len(packet_ids))
            for packet_id in packet_ids:
                check_u32("packet id", packet_id)
            return (TAG_PROPOSE if kind is ProposePayload else TAG_REQUEST), (), packet_ids
        if kind is ServePayload:
            return TAG_SERVE, (check_u32("served packet id", payload.packet_id),), ()
    except EncodeError as exc:
        raise EncodeError(f"payload of type {kind.__name__}: {exc}") from None
    raise EncodeError(
        f"payload of type {kind.__name__} is not one of the repro.core.messages payload classes"
    )


def unpack_payload(tag: int, scalars: Tuple[int, ...], packet_ids: Tuple[int, ...]) -> object:
    """Inverse of :func:`pack_payload`; the parts must follow ``PAYLOAD_LAYOUT[tag]``.

    Raises ``ValueError`` for an unknown tag and for parts that break a
    payload invariant (an empty id vector).
    """
    if tag == TAG_NONE:
        return None
    if tag == TAG_PROPOSE:
        return ProposePayload(packet_ids)
    if tag == TAG_REQUEST:
        return RequestPayload(packet_ids)
    if tag == TAG_SERVE:
        return ServePayload(*scalars)
    raise ValueError(f"unknown payload tag {tag}")
