"""The versioned ``repro.telemetry/1`` streaming trace format.

A trace is a JSONL file: the first line is a **header**, every following
line one **event**.  The format is backend-agnostic by design — ROADMAP
items 1 (sharded PDES) and 2 (asyncio-UDP backend) will emit the same
schema, which is what makes :mod:`repro.telemetry.diff` a bit-reproducibility
triage tool across execution backends.

Header line::

    {"schema": "repro.telemetry/1", "meta": {...}}

``meta`` carries run identification (seed, node count, protocol, dispatch
backend, code fingerprint, stream geometry) plus a wall-clock timestamp.
Determinism is pinned *modulo the header*: two runs of the same config and
seed produce byte-identical event lines, while the header may differ in
wall-clock fields.

Event lines are compact objects with three universal keys —

* ``i``  contiguous event index (assigned by the writer),
* ``t``  simulated time in seconds,
* ``k``  event kind (one of :data:`EVENT_KINDS`)

— plus per-kind fields:

==================  ====================================================
kind                extra fields
==================  ====================================================
``dispatch``        ``fn`` (callback qualname) — sampling applies
``send``            ``snd rcv mk sz d fin`` (datagram seq + serialization
                    finish time)
``send_blocked``    ``snd rcv mk sz`` (sender dead, nothing entered)
``drop_congestion`` ``snd rcv mk sz`` (upload backlog full)
``loss``            ``snd rcv mk sz d`` (lost in flight after accept)
``deliver_msg``     ``snd rcv mk sz d`` (datagram reached live receiver)
``drop_dead``       ``snd rcv mk sz d`` (receiver dead at arrival)
``packet``          ``n p source`` (first-time stream-packet delivery)
``node_failed``     ``n``
``node_recovered``  ``n``
``round``           ``n np`` (gossip round with np partners)
``feed_me_round``   ``n nt`` (feed-me round with nt targets)
==================  ====================================================

``(snd, d)`` names a datagram: ``d`` is its sender's send count at the
instant the upload limiter accepted it (``Message.seq``: 1, 2, 3, ... per
sender), stamped by the transport and carried across the shard wire and the
UDP codec.  The same name therefore links a ``send`` to its terminal fate
whichever substrate — or shard's trace — recorded either line, and the
Perfetto exporter turns each link into a flow arrow.

Two ways in, one set of bytes out: :meth:`TraceWriter.append` is the general
path (any kind, any fields, one ``json`` encode per event);
:meth:`TraceWriter.write` renders a known kind from a pre-built template, and
the recorder's frequent edges fill that same template themselves.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, IO, Iterator, Optional, Tuple, Union

TRACE_SCHEMA = "repro.telemetry/1"
"""Schema tag of traces this code writes."""

SCHEMA_NAME = "repro.telemetry"
SCHEMA_MAJOR = 1

_DATAGRAM = ("snd", "rcv", "mk", "sz")
EVENT_FIELDS: Dict[str, Tuple[str, ...]] = {
    "dispatch": ("fn",),
    "send": _DATAGRAM + ("d", "fin"),
    "send_blocked": _DATAGRAM,
    "drop_congestion": _DATAGRAM,
    "loss": _DATAGRAM + ("d",),
    "deliver_msg": _DATAGRAM + ("d",),
    "drop_dead": _DATAGRAM + ("d",),
    "packet": ("n", "p", "source"),
    "node_failed": ("n",),
    "node_recovered": ("n",),
    "round": ("n", "np"),
    "feed_me_round": ("n", "nt"),
}
"""The extra fields of each kind, in line order (the docstring's table, as data)."""

EVENT_KINDS: Tuple[str, ...] = tuple(EVENT_FIELDS)
"""Every event kind of schema major version 1, in rough hot-path order."""

#: kind -> the ``%``-template of its line over ``(i, *JSON texts of t and the fields)``.
_LINE_TEMPLATES: Dict[str, str] = {
    kind: '{"i":%d,"t":%s,"k":"' + kind + '"' + "".join(f',"{name}":%s' for name in fields) + "}"
    for kind, fields in EVENT_FIELDS.items()
}

_encode = json.JSONEncoder(separators=(",", ":")).encode


def json_text(value: Any) -> str:
    """Compact ``json.dumps(value)`` of one field value, byte for byte.

    Finite floats are their ``repr`` (what ``json`` emits for them); anything
    else — strings, bools, ``NaN``, infinities, foreign types — is left to
    ``json`` itself.
    """
    if type(value) is float and value - value == 0.0:
        return repr(value)
    return _encode(value)


class TraceError(ValueError):
    """A trace file violates the schema (or is not a trace at all)."""


@dataclass(frozen=True)
class TraceHeader:
    """The parsed first line of a trace."""

    schema: str
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def major_version(self) -> int:
        """The schema's major version number."""
        return int(self.schema.rpartition("/")[2])


class _ClosedBuffer(list):
    """A closed writer's buffer: empty for good, and the first append raises."""

    def __init__(self, path: Path) -> None:
        super().__init__()
        self._path = path

    def append(self, line: str) -> None:
        raise TraceError(f"trace writer for {self._path} is closed")


class TraceWriter:
    """Streams events to a JSONL trace with bounded memory.

    The header is written on construction; events are buffered and flushed
    every ``flush_every`` lines (and on :meth:`close`), so an arbitrarily
    long session holds at most ``flush_every`` encoded lines in memory.
    The writer assigns the contiguous ``i`` index — callers supply events
    without it.

    The recorder's frequent edges do what :meth:`write` does, on the same
    state and without the call: the next index is ``flushed + len(buffer)``,
    ``time`` / ``time_text`` memoise the last clock reading and its JSON, a
    stored line bumps ``counts[kind]``, and ``flush_every`` held lines flush.
    """

    def __init__(
        self,
        path: Union[str, Path],
        meta: Optional[Dict[str, Any]] = None,
        flush_every: int = 1000,
    ) -> None:
        if flush_every < 1:
            raise TraceError(f"flush_every must be >= 1, got {flush_every!r}")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.flush_every = flush_every
        self.buffer: list = []
        self.flushed = 0  # event lines on disk
        self.counts: Dict[str, int] = defaultdict(int)
        self.time, self.time_text = None, "null"
        self._file: Optional[IO[bytes]] = open(self.path, "wb")
        header = (_encode({"schema": TRACE_SCHEMA, "meta": dict(meta or {})}) + "\n").encode()
        self._file.write(header)
        self._file.flush()

    @property
    def events_written(self) -> int:
        """Events appended so far (header excluded)."""
        return self.flushed + len(self.buffer)

    @property
    def counts_by_kind(self) -> Dict[str, int]:
        """Per-kind event counts so far."""
        return {kind: count for kind, count in self.counts.items() if count}

    def append(self, kind: str, time: float, **fields) -> None:
        """Append one event; ``i`` is assigned here."""
        buffer = self.buffer
        event = {"i": self.flushed + len(buffer), "t": time, "k": kind}
        event.update(fields)
        buffer.append(_encode(event))
        self.counts[kind] += 1
        if len(buffer) >= self.flush_every:
            self.flush()

    def write(self, kind: str, time: float, *values) -> None:
        """Append one event of a known kind from its field values, in order.

        One ``%``-template per kind instead of a dict and a ``json`` encode
        per event.  ``values`` follow ``EVENT_FIELDS[kind]``, an ``int`` as it
        is and anything else as its :func:`json_text`, so the line is byte for
        byte the one :meth:`append` would write.  The recorder's rare kinds
        come through here; its frequent ones render the same template inline.
        """
        if time is not self.time:  # two lines in three repeat the last clock reading
            self.time, self.time_text = time, json_text(time)
        buffer = self.buffer
        buffer.append(
            _LINE_TEMPLATES[kind] % (self.flushed + len(buffer), self.time_text, *values)
        )
        self.counts[kind] += 1
        if len(buffer) >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Write buffered lines through to disk (so a live trace is tailable).

        A flush that fails — ``OSError`` from a full disk, an interrupt in the
        middle of the write — **drops its buffer and closes the writer**: the
        file is cut back to the end of the last whole flush, ``events_written``
        / ``counts_by_kind`` fall back to what is on disk, and the error is
        raised once — a later :meth:`close` is a no-op, not a second failure
        (or a second copy) of the same lines.
        """
        if self._file is None:
            raise TraceError(f"trace writer for {self.path} is closed")
        buffer = self.buffer
        if buffer:
            whole = self._file.tell()  # nothing is pending: every write is flushed
            try:
                self._file.write(("\n".join(buffer) + "\n").encode("utf-8"))
                self._file.flush()
            except BaseException:
                self._abandon(whole)
                raise
            self.flushed += len(buffer)
            buffer.clear()

    def _abandon(self, whole: int) -> None:
        for line in self.buffer:
            self.counts[json.loads(line)["k"]] -= 1
        file, self._file, self.buffer = self._file, None, _ClosedBuffer(self.path)
        with suppress(OSError):  # bytes of the failed write may still be pending
            file.close()
        with suppress(OSError):
            os.truncate(self.path, whole)

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if self._file is None:
            return
        self.flush()  # a flush that fails has closed the writer itself
        self._file.close()
        self._file, self.buffer = None, _ClosedBuffer(self.path)

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
def read_header(path: Union[str, Path]) -> TraceHeader:
    """Parse and validate a trace's header line.

    Raises :class:`TraceError` for a missing/foreign schema tag or an
    unsupported major version — minor-version evolution stays readable
    because events are self-describing objects.
    """
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline()
    if not first.strip():
        raise TraceError(f"{path}: empty file is not a trace")
    try:
        data = json.loads(first)
    except json.JSONDecodeError as exc:
        raise TraceError(f"{path}: header line is not JSON: {exc}") from exc
    schema = data.get("schema") if isinstance(data, dict) else None
    if not isinstance(schema, str):
        raise TraceError(f"{path}: header has no schema tag")
    name, _, version = schema.rpartition("/")
    if name != SCHEMA_NAME or not version.isdigit():
        raise TraceError(f"{path}: foreign schema tag {schema!r}")
    if int(version) != SCHEMA_MAJOR:
        raise TraceError(
            f"{path}: unsupported schema major version {version} "
            f"(this reader understands {SCHEMA_NAME}/{SCHEMA_MAJOR})"
        )
    meta = data.get("meta", {})
    if not isinstance(meta, dict):
        raise TraceError(f"{path}: header meta must be an object")
    return TraceHeader(schema=schema, meta=meta)


def iter_events(path: Union[str, Path]) -> Iterator[Dict[str, Any]]:
    """Yield every event of a trace (header validated, then skipped)."""
    read_header(path)
    with open(path, "r", encoding="utf-8") as handle:
        handle.readline()  # header
        for line_number, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(f"{path}:{line_number}: bad event line: {exc}") from exc


def validate_trace(path: Union[str, Path]) -> Tuple[TraceHeader, int]:
    """Full structural validation; returns ``(header, event count)``.

    Checks the header, a contiguous ``i`` sequence, non-decreasing ``t``
    (simulated time is monotone, so any regression means interleaved or
    corrupt writes), known event kinds, and the datagram links:

    * each sender's ``send`` lines carry rising ``d``, so no ``(snd, d)``
      is on two of them;
    * a terminal line (``loss``, ``deliver_msg``, ``drop_dead``) whose
      ``send`` is in the trace resolves it exactly once and agrees with it
      on ``rcv``, ``mk`` and ``sz``.  Once a whole-run trace has recorded
      any ``send``, every terminal line must resolve one; a shard's trace
      (a ``shard`` header) holds only the senders it traces to that, since
      the others' sends are in their own shards' traces.

    Only lines that carry an integer ``snd`` and ``d`` are linked (this
    checks no per-kind field lists).  Memory stays bounded by the datagrams
    in flight plus one count per sender.
    """
    header = read_header(path)
    fragment = "shard" in header.meta
    last_sent: Dict[int, int] = {}
    pending: Dict[Tuple[int, int], Tuple[Any, Any, Any]] = {}
    count = 0
    last_time = float("-inf")
    for event in iter_events(path):
        if event.get("i") != count:
            raise TraceError(
                f"{path}: event index {event.get('i')!r} where {count} was expected"
            )
        kind = event.get("k")
        if kind not in EVENT_KINDS:
            raise TraceError(f"{path}: event {count} has unknown kind {kind!r}")
        time = event.get("t")
        if not isinstance(time, (int, float)) or time < last_time:
            raise TraceError(
                f"{path}: event {count} time {time!r} regresses below {last_time!r}"
            )
        last_time = float(time)
        name = sender, seq = event.get("snd"), event.get("d")
        if type(sender) is int and type(seq) is int:
            fields = (event.get("rcv"), event.get("mk"), event.get("sz"))
            if kind == "send":
                if seq <= last_sent.get(sender, -1):
                    raise TraceError(
                        f"{path}: event {count} sends {name} after "
                        f"({sender}, {last_sent[sender]})"
                    )
                last_sent[sender] = seq
                pending[name] = fields
            elif name in pending:
                sent = pending.pop(name)
                if sent != fields:
                    raise TraceError(
                        f"{path}: event {count} ({kind}) of datagram {name} has "
                        f"(rcv, mk, sz) {fields}, its send {sent}"
                    )
            elif sender in last_sent or (last_sent and not fragment):
                raise TraceError(
                    f"{path}: event {count} ({kind}) of datagram {name} "
                    "resolves no earlier unresolved send"
                )
        count += 1
    return header, count


__all__ = [
    "EVENT_FIELDS",
    "EVENT_KINDS",
    "TRACE_SCHEMA",
    "TraceError",
    "TraceHeader",
    "TraceWriter",
    "iter_events",
    "json_text",
    "read_header",
    "validate_trace",
]
