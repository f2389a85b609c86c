"""Compact cross-shard wire format: columnar batches instead of pickled objects.

Process-mode sharding pays a serialization tax at every window barrier: the
original runner pickled each window's ``RoutedDatagram`` list — one
:class:`~repro.network.message.Message` object per datagram, each dragging
its dataclass machinery, ``kind`` string and payload object graph through
the pickler.  At metropolis scale that tax dominated the cross-shard path
(docs/performance.md).

This module replaces the object batch with a *columnar* encoding,
:class:`WireBatch`: per-datagram head records packed into one ``struct``
array (``deliver_time``, ``sender``, ``seq``, ``receiver``, ``size_bytes``,
kind code, payload tag), tag scalars in an aux column and packet-id vectors
in an id column.  Integer columns are adaptively 1/2/4 bytes wide from the batch maxima, and
sequence numbers are delta-encoded against the batch minimum — a smoke-scale
batch pays ~15 bytes of head per datagram, not a pickled object graph.  Three
flat ``bytes`` objects cross the process boundary per batch — pickling them
is a length-prefixed memcpy.  The process link ships them with pickle
protocol 5 framing (:class:`repro.shard.runner._PipeChannel`); the buffers
stay in-band because a multiprocessing pipe serializes regardless — the
compact columns, not out-of-band plumbing, are where the bytes go away.

The contract is the shard contract: :func:`decode_batch` reconstructs every
``RoutedDatagram`` *exactly* — same delivery float, same ``Message`` field
values, same payload dataclasses — so the receiving shard's event stream is
byte-identical to what the pickled batch produced.  The shard-equivalence
property suite pins this end to end; ``tests/properties`` pins
``decode(encode(batch)) == batch`` directly, over every protocol message
kind.  Payloads are the three :mod:`repro.core.messages` classes or ``None``,
split into tag, scalars and id vector by that module's one payload table (which :mod:`repro.realnet.codec` frames too); anything else is
refused at encode time with a :class:`WireFormatError`, so decoding never
unpickles bytes that crossed a process boundary.
"""

from __future__ import annotations

import struct
import threading
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.core.messages import (
    PAYLOAD_LAYOUT,
    EncodeError,
    check_u32,
    pack_payload,
    unpack_payload,
)
from repro.network.message import Message, stamp_seq

#: One cross-shard datagram: ``(deliver_time, sender, seq, message)``.
#: ``seq`` is ``message.seq``, the sender's send count at acceptance, so
#: ``(sender, seq)`` is globally unique and the triple ``(deliver_time,
#: sender, seq)`` is a total order over any batch.  Decoding stamps it back
#: onto the rebuilt message.
RoutedDatagram = Tuple[float, int, int, Message]

# ----------------------------------------------------------------------
# Layout
# ----------------------------------------------------------------------
# Columns are *adaptively* sized: each batch measures its maxima and picks
# 1-, 2- or 4-byte widths for the node-id, seq-delta, wire-size, aux-scalar
# and packet-id columns (a 16-node smoke session pays 1-byte node ids; a
# metropolis session pays 2).  Sequence numbers — each sender's unbounded
# send count — are stored as deltas against the batch minimum, which keeps
# them narrow while senders send at similar rates.  All widths are pure
# functions of batch content, so encode/decode stays exact and deterministic.
#
# Per-datagram head record: ``deliver_time`` f64 (bit-exact, never
# narrowed), ``sender``, ``seq - seq_base``, ``receiver``, ``size_bytes``,
# kind code (u8), payload tag (u8).  Tag-specific scalars live in the aux
# column, not the head, so a tag pays only for what it uses.

_WIDTH_CODES = {1: "B", 2: "H", 4: "I"}

# What each payload tag carries is :data:`repro.core.messages.PAYLOAD_LAYOUT`
# (shared with :mod:`repro.realnet.codec`).  Its aux-column footprint is the
# tag's scalars, then the id count if it has a packet-id vector (the ids go
# to the id column).


def _width_for(maximum: int) -> int:
    if maximum <= 0xFF:
        return 1
    if maximum <= 0xFFFF:
        return 2
    return 4


@lru_cache(maxsize=64)
def _head_struct(node_width: int, seq_width: int, size_width: int) -> struct.Struct:
    codes = _WIDTH_CODES
    return struct.Struct(
        f"<d{codes[node_width]}{codes[seq_width]}{codes[node_width]}"
        f"{codes[size_width]}BB"
    )


#: ``_AUX_STRUCTS[width][n]`` packs one datagram's ``n`` aux scalars.
_AUX_STRUCTS = {
    width: tuple(
        struct.Struct(f"<{n}{code}")
        for n in range(1 + max(map(sum, PAYLOAD_LAYOUT.values())))
    )
    for width, code in _WIDTH_CODES.items()
}


class WireFormatError(ValueError):
    """A batch cannot be represented in, or rebuilt from, the wire format.

    Raised at encode time for values outside the fixed-width head layout
    (node ids, sequence numbers or wire sizes beyond ``uint32``, more than
    256 distinct message kinds in one batch) and for a payload no tag
    carries (a foreign type, or a protocol payload with a field beyond
    ``uint32``); at decode time for columns that do not decode.
    """


class WireBatch:
    """One window's cross-shard batch in columnar form.

    Attributes
    ----------
    count:
        Number of datagrams in the batch.
    kinds:
        Per-batch table of ``Message.kind`` strings; head records index it.
    seq_base:
        The batch's minimum sequence number; head records store deltas
        against it (sequence numbers are the senders' unbounded send counts,
        the deltas inside one window stay narrow).
    widths:
        ``(node, seq, size, aux, ids)`` column widths in bytes, each 1, 2
        or 4, chosen from the batch maxima at encode time.
    head / aux / ids:
        The three flat buffers (fixed head records, tag scalars, packet-id
        vectors).  All plain ``bytes`` — pickling a :class:`WireBatch`
        costs three memcpys regardless of batch size.
    """

    __slots__ = ("count", "kinds", "seq_base", "widths", "head", "aux", "ids")

    def __init__(
        self,
        count: int,
        kinds: Tuple[str, ...],
        seq_base: int,
        widths: Tuple[int, int, int, int, int],
        head: bytes,
        aux: bytes,
        ids: bytes,
    ) -> None:
        self.count = count
        self.kinds = kinds
        self.seq_base = seq_base
        self.widths = widths
        self.head = head
        self.aux = aux
        self.ids = ids

    def __getstate__(self):
        return (self.count, self.kinds, self.seq_base, self.widths, self.head, self.aux, self.ids)

    def __setstate__(self, state) -> None:
        (
            self.count,
            self.kinds,
            self.seq_base,
            self.widths,
            self.head,
            self.aux,
            self.ids,
        ) = state

    @property
    def nbytes(self) -> int:
        """Serialized payload size: the three columns, kind table and header.

        The constant accounts for the batch-level scalars (count, seq base,
        five width bytes) as they cross the wire inside the pickle frame.
        """
        return (
            len(self.head)
            + len(self.aux)
            + len(self.ids)
            + sum(len(kind) for kind in self.kinds)
            + 16
        )


def encode_batch(datagrams: Sequence[RoutedDatagram]) -> WireBatch:
    """Pack a window's routed datagrams into one :class:`WireBatch`.

    Protocol payloads (PROPOSE / REQUEST / SERVE, and a FEED_ME's ``None``)
    take the typed tags; any other payload, and any field beyond uint32,
    raises :class:`WireFormatError` naming it.

    Two passes: the first stages each record and measures the column
    maxima, the second packs with the narrowest widths that fit them.
    """
    kind_codes: Dict[str, int] = {}
    staged = []  # (deliver_time, sender, seq, receiver, size, kind, tag, aux_tuple, pids)
    max_node = max_size = max_aux = max_id = 0
    seq_base = min((datagram[2] for datagram in datagrams), default=0)
    max_seq_delta = 0
    try:
        for deliver_time, sender, seq, message in datagrams:
            kind_code = kind_codes.setdefault(message.kind, len(kind_codes))
            if kind_code > 0xFF:
                raise WireFormatError(
                    f"cannot encode batch: more than 256 distinct message kinds "
                    f"(offender: {message.kind!r})"
                )
            check_u32("sender", sender)
            receiver = check_u32("receiver", message.receiver)
            size_bytes = check_u32("size_bytes", message.size_bytes)
            delta = check_u32("seq delta", seq - seq_base)
            tag, aux, pids = pack_payload(message.payload)
            if PAYLOAD_LAYOUT[tag][1]:
                aux += (len(pids),)
                max_id = max(max_id, *pids)
            if aux:
                max_aux = max(max_aux, *aux)
            max_node = max(max_node, sender, receiver)
            if size_bytes > max_size:
                max_size = size_bytes
            if delta > max_seq_delta:
                max_seq_delta = delta
            staged.append(
                (deliver_time, sender, delta, receiver, size_bytes, kind_code, tag, aux, pids)
            )
    except EncodeError as exc:
        raise WireFormatError(f"cannot encode datagram: {exc}") from exc

    widths = (
        _width_for(max_node),
        _width_for(max_seq_delta),
        _width_for(max_size),
        _width_for(max_aux),
        _width_for(max_id),
    )
    head_pack = _head_struct(widths[0], widths[1], widths[2]).pack
    aux_structs = _AUX_STRUCTS[widths[3]]
    ids_code = _WIDTH_CODES[widths[4]]
    head = bytearray()
    aux_column = bytearray()
    ids_column = bytearray()
    for deliver_time, sender, delta, receiver, size_bytes, kind_code, tag, aux, pids in staged:
        head += head_pack(deliver_time, sender, delta, receiver, size_bytes, kind_code, tag)
        if aux:
            aux_column += aux_structs[len(aux)].pack(*aux)
        if pids:
            ids_column += struct.pack(f"<{len(pids)}{ids_code}", *pids)
    kinds = tuple(sorted(kind_codes, key=kind_codes.__getitem__))
    return WireBatch(
        len(datagrams),
        kinds,
        seq_base,
        widths,
        bytes(head),
        bytes(aux_column),
        bytes(ids_column),
    )


def decode_batch(batch: WireBatch) -> List[RoutedDatagram]:
    """Exact inverse of :func:`encode_batch`.

    Reconstructs each ``RoutedDatagram`` with field-identical ``Message``
    and payload values — the decoded batch compares equal to the encoded
    one, tuple for tuple, in the original order.  Columns that do not
    decode (an unknown tag, a record running off a column, parts that break
    a payload invariant) raise :class:`WireFormatError`.
    """
    out: List[RoutedDatagram] = []
    kinds = batch.kinds
    seq_base = batch.seq_base
    node_width, seq_width, size_width, aux_width, ids_width = batch.widths
    aux_column = batch.aux
    aux_structs = _AUX_STRUCTS[aux_width]
    ids_code = _WIDTH_CODES[ids_width]
    aux_at = 0
    ids_at = 0
    try:
        for (
            deliver_time,
            sender,
            delta,
            receiver,
            size_bytes,
            kind_code,
            tag,
        ) in _head_struct(node_width, seq_width, size_width).iter_unpack(batch.head):
            layout = PAYLOAD_LAYOUT.get(tag)
            if layout is None:
                raise ValueError(f"unknown payload tag {tag}")
            scalar_count, has_ids = layout
            aux_count = scalar_count + has_ids
            aux = aux_structs[aux_count].unpack_from(aux_column, aux_at)
            aux_at += aux_count * aux_width
            packet_ids: Tuple[int, ...] = ()
            if has_ids:
                count = aux[scalar_count]
                packet_ids = struct.unpack_from(f"<{count}{ids_code}", batch.ids, ids_at)
                ids_at += ids_width * count
            payload = unpack_payload(tag, aux[:scalar_count], packet_ids)
            message = Message(sender, receiver, kinds[kind_code], size_bytes, payload)
            seq = seq_base + delta
            stamp_seq(message, seq)
            out.append((deliver_time, sender, seq, message))
    except (struct.error, IndexError, ValueError) as exc:
        raise WireFormatError(f"corrupt wire batch: {exc}") from exc
    return out


# ----------------------------------------------------------------------
# Batch-level views
# ----------------------------------------------------------------------
def iter_headers(batch: WireBatch) -> Iterator[Tuple[float, int, int, int]]:
    """Yield ``(deliver_time, sender, seq, receiver)`` per datagram.

    The coordinator's routing-validation view: a straight ``struct`` scan of
    the head column, without touching payloads.
    """
    seq_base = batch.seq_base
    node_width, seq_width, size_width = batch.widths[:3]
    for record in _head_struct(node_width, seq_width, size_width).iter_unpack(batch.head):
        yield (record[0], record[1], seq_base + record[2], record[3])


def merge_inbound(batches: Iterable[WireBatch]) -> List[RoutedDatagram]:
    """Decode and merge a window's inbound batches into delivery order.

    Sorting by ``(deliver_time, sender, seq)`` makes the merged order
    independent of how the coordinator concatenated the per-source batches
    (``(sender, seq)`` is globally unique, so the key is a total order).
    """
    merged: List[RoutedDatagram] = []
    for batch in batches:
        merged.extend(decode_batch(batch))
    merged.sort(key=lambda datagram: datagram[:3])
    return merged


# ----------------------------------------------------------------------
# Instrumentation (read by the end-to-end benchmark's ledger)
# ----------------------------------------------------------------------
class WireStats:
    """Process-local accumulator of encoded cross-shard traffic.

    Routers report every flushed window into the module-level
    :data:`WIRE_STATS`.  Nothing in the package reads it: the thread-mode
    ledger of ``benchmarks/e2e/workloads.py`` resets it, runs, and reads
    bytes per datagram.  Thread-mode runs step every shard in the caller,
    so they aggregate across all shards; process-mode workers accumulate in
    their own processes, so a process-mode parent reads zeros.
    """

    __slots__ = ("_lock", "windows", "batches", "datagrams", "wire_bytes")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Zero every counter (start of a run)."""
        with self._lock:
            self.windows = 0
            self.batches = 0
            self.datagrams = 0
            self.wire_bytes = 0

    def record_window(self, batches: int, datagrams: int, wire_bytes: int) -> None:
        """Fold one window exchange's counts into the totals."""
        with self._lock:
            self.windows += 1
            self.batches += batches
            self.datagrams += datagrams
            self.wire_bytes += wire_bytes

    def snapshot(self) -> Dict[str, int]:
        """Copy the counters out under the lock."""
        with self._lock:
            return {
                "windows": self.windows,
                "batches": self.batches,
                "datagrams": self.datagrams,
                "wire_bytes": self.wire_bytes,
            }


WIRE_STATS = WireStats()
