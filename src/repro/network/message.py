"""Messages exchanged over the simulated network.

A :class:`Message` is the network-layer view of a datagram: who sends it, who
receives it, how many bytes it occupies on the wire, a ``kind`` tag used for
traffic accounting, and an opaque payload interpreted by the application
(the gossip protocol defines PROPOSE / REQUEST / SERVE / FEED_ME payloads in
:mod:`repro.core.messages`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

NodeId = int
"""Nodes are identified by small non-negative integers."""


@dataclass(frozen=True, slots=True, init=False)
class Message:
    """An application datagram with explicit wire size.

    Slotted and frozen; one is allocated per datagram on the simulation hot
    path, so the constructor is written by hand: it validates inline and fills
    the slots through their own descriptors, about half the cost of the
    generated ``__init__`` + ``__post_init__`` pair (docs/performance.md,
    "Frame diet").  Equality, hashing, ``repr`` and pickling are the dataclass's.

    Attributes
    ----------
    sender:
        Node id of the sender.
    receiver:
        Node id of the destination.
    kind:
        Short tag naming the message type (e.g. ``"propose"``); used only
        for per-kind traffic accounting and debugging.
    size_bytes:
        Number of bytes the datagram occupies on the wire, including
        application headers.  The upload limiter charges exactly this amount
        against the sender's cap.
    payload:
        Opaque application payload delivered to the receiver's handler.
    seq:
        The datagram's name on every substrate: its sender's
        ``messages_sent`` count at the instant the upload limiter accepted
        it, so ``(sender, seq)`` is unique per run.  ``0`` means "not
        accepted".  ``Network.send_many`` stamps it, the shard wire and the
        UDP codec carry it; it takes no part in equality or hashing.
    """

    sender: NodeId
    receiver: NodeId
    kind: str
    size_bytes: int
    payload: Any = field(default=None)
    seq: int = field(default=0, compare=False)

    def __init__(
        self, sender: NodeId, receiver: NodeId, kind: str, size_bytes: int, payload: Any = None
    ) -> None:
        if size_bytes <= 0:
            raise ValueError(f"message size must be positive, got {size_bytes!r}")
        if sender < 0 or receiver < 0:
            raise ValueError("node ids must be non-negative")
        _set_sender(self, sender)
        _set_receiver(self, receiver)
        _set_kind(self, kind)
        _set_size_bytes(self, size_bytes)
        _set_payload(self, payload)
        stamp_seq(self, 0)

    def size_bits(self) -> int:
        """Wire size in bits (used by the bandwidth limiter)."""
        return self.size_bytes * 8


# The slot descriptors' own setters: ``Message.__setattr__`` raises (frozen),
# and ``object.__setattr__(self, name, value)`` re-resolves the name per store.
_set_sender = Message.sender.__set__
_set_receiver = Message.receiver.__set__
_set_kind = Message.kind.__set__
_set_size_bytes = Message.size_bytes.__set__
_set_payload = Message.payload.__set__
stamp_seq = Message.seq.__set__
"""``stamp_seq(message, seq)``: name a datagram once it is accepted, or rebuilt from a wire."""
