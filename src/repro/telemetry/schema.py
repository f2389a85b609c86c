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

* ``i``  contiguous event index (assigned by the writer's render child),
* ``t``  simulated time in seconds,
* ``k``  event kind (one of :data:`EVENT_KINDS`)

— plus per-kind fields:

==================  ====================================================
kind                extra fields
==================  ====================================================
``dispatch``        ``fn`` (callback qualname)
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
path (any kind, any fields, one ``json`` encode of the fields per event into
a template per kind); :meth:`TraceWriter.write` records a known kind against its
pre-built template, and the recorder's frequent edges append that same record
themselves.  Either way the session process keeps records, and the writer's
render child (:mod:`repro.telemetry.render`) makes the lines.
"""

from __future__ import annotations

import json
import marshal
import os
import sys
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Deque, Dict, IO, Iterator, List, Optional, Tuple, Union

from repro.telemetry import render as render_module
from repro.telemetry.render import count_templates, frame, json_text

if TYPE_CHECKING:
    import subprocess

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


class TraceError(ValueError):
    """A trace file violates the schema (or is not a trace at all)."""


@dataclass(frozen=True)
class TraceHeader:
    """The parsed first line of a trace."""

    schema: str
    meta: Dict[str, Any] = field(default_factory=dict)


class _ClosedBuffer(list):
    """A closed writer's buffer: empty for good, and the first append raises."""

    def __init__(self, path: Path) -> None:
        super().__init__()
        self._path = path

    def append(self, record: Tuple[Any, ...]) -> None:
        raise TraceError(f"trace writer for {self._path} is closed")


#: template -> the kind its lines carry; :meth:`TraceWriter.append` adds its own.
_KINDS: Dict[str, str] = {template: kind for kind, template in _LINE_TEMPLATES.items()}

#: kind -> the template :meth:`TraceWriter.append` fills with the encoded fields.
_APPEND_TEMPLATES: Dict[str, str] = {}

#: Records a writer buffers before it sends them to its render child as one
#: batch (docs/observability.md: 10,000 is within noise of this).
FLUSH_EVERY = 1000

#: How far the render child may fall behind, in batches of
#: :data:`FLUSH_EVERY` records, before a flush waits for it: enough to cover
#: its start-up.
LAG_BATCHES = 16

#: What the pipes to and from the render child hold, where the host allows:
#: an answer to a batch (about 100 kB at :data:`FLUSH_EVERY`) fits whole.
_PIPE_BYTES = 1 << 20


class TraceWriter:
    """Streams events to a JSONL trace with bounded memory.

    The header is written on construction.  An event is held as a record,
    ``(template, t, *values)`` (:mod:`repro.telemetry.render`): no line is
    rendered in the session process.  Every :data:`FLUSH_EVERY` records (and on
    :meth:`close`) a flush sends them as one batch to the writer's render
    child, started at the first flush, which numbers the lines (the
    contiguous ``i`` index — callers supply events without it) and renders
    them.  A flush blocks on neither pipe: it gives the child what its pipe
    takes and writes each answer that is back to the file, one write per
    batch.  It waits for the child only when more than :data:`LAG_BATCHES`
    batches are unanswered, and :meth:`close` waits for all of them.  So
    the file trails the records by at most ``(LAG_BATCHES + 1) *
    FLUSH_EVERY`` lines, and the writer holds no more records than that.

    The recorder's frequent edges do what :meth:`write` does, on the same
    state and without the call: they append a record to ``buffer`` and flush
    when it holds :data:`FLUSH_EVERY`.
    """

    def __init__(self, path: Union[str, Path], meta: Optional[Dict[str, Any]] = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.buffer: list = []
        self._sent: Deque[list] = deque()  # batches sent to the child, not answered yet
        self._outbox = bytearray()  # framed batches the child's pipe has not taken yet
        self._inbox = bytearray()  # answer bytes read, short of a whole answer
        self._chunk = memoryview(b"")  # what one read takes: a pipeful, once the child runs
        self._on_disk: Dict[str, int] = {}  # event lines per kind in the file
        self._child: Optional["subprocess.Popen[bytes]"] = None
        self._file: Optional[IO[bytes]] = open(self.path, "wb")
        header = (json_text({"schema": TRACE_SCHEMA, "meta": dict(meta or {})}) + "\n").encode()
        self._file.write(header)
        self._file.flush()

    @property
    def events_written(self) -> int:
        """Events appended so far (header excluded)."""
        return sum(self._on_disk.values()) + sum(map(len, self._sent)) + len(self.buffer)

    @property
    def counts_by_kind(self) -> Dict[str, int]:
        """Per-kind event counts so far."""
        counts = dict(self._on_disk)
        for records in (*self._sent, self.buffer):
            _tally(counts, count_templates(records))
        return counts

    def append(self, kind: str, time: float, **fields) -> None:
        """Append one event; ``i`` is assigned by the render child."""
        kind = fields.pop("k", kind)  # a field named ``k`` names the kind
        template = _APPEND_TEMPLATES.get(kind)
        if template is None:
            template = '{"i":%d,"t":%s,"k":' + json_text(kind).replace("%", "%%") + "%s}"
            _APPEND_TEMPLATES[kind], _KINDS[template] = template, kind
        buffer = self.buffer
        buffer.append((template, time, "," + json_text(fields)[1:-1] if fields else ""))
        if len(buffer) >= FLUSH_EVERY:
            self.flush()

    def write(self, kind: str, time: float, *values) -> None:
        """Append one event of a known kind from its field values, in order.

        ``values`` follow ``EVENT_FIELDS[kind]``: an ``int`` as it is (and the
        last one, ``fin``, may be a ``float``), anything else as its
        :func:`json_text`, so the line is byte for byte the one :meth:`append`
        would write.  The recorder's rare kinds come through here; its
        frequent ones append the same record inline.
        """
        buffer = self.buffer
        buffer.append((_LINE_TEMPLATES[kind], time, *values))
        if len(buffer) >= FLUSH_EVERY:
            self.flush()

    def flush(self) -> None:
        """Send the buffered records to the render child; write what it has answered.

        A flush that fails — ``OSError`` from a full disk, an interrupt in the
        middle of a write, a render child that is gone (:class:`TraceError`)
        — **drops its records and closes the writer**: the file is cut back to
        the end of the last whole write, ``events_written`` /
        ``counts_by_kind`` fall back to what is on disk, and the error is
        raised once — a later :meth:`close` is a no-op, not a second failure
        (or a second copy) of the same lines.
        """
        if self._file is None:
            raise TraceError(f"trace writer for {self.path} is closed")
        batch = self.buffer
        if batch:
            self.buffer = []
            self._send(batch)
            self._trade(until=LAG_BATCHES)

    def close(self) -> None:
        """Flush, write every answer, reap the render child and close the file (idempotent)."""
        if self._file is None:
            return
        if self.buffer:
            self._send(self.buffer)
            self.buffer = []
        if self._sent:
            self._trade(until=0)  # a trade that fails has closed the writer, and raises
        self._stop_child(kill=False)
        self._file.close()
        self._file, self.buffer = None, _ClosedBuffer(self.path)

    def _send(self, batch: list) -> None:
        self._sent.append(batch)
        self._outbox += frame(batch)

    def _trade(self, until: int) -> None:
        """Give the child what its pipe takes and write each answer that is back.

        Blocks, on both pipes at once, only while more than ``until`` batches
        are unanswered.
        """
        import select

        whole = self._file.tell()  # nothing is pending: every write is flushed
        try:
            child = self._child or self._start_child()
            to_child, from_child = child.stdin.fileno(), child.stdout.fileno()
            while True:
                waiting = len(self._sent) > until
                try:
                    readable, writable, _ = select.select(
                        [from_child], [to_child] if self._outbox else [], [],
                        None if waiting else 0,
                    )
                    if writable:
                        del self._outbox[:os.write(to_child, self._outbox)]
                    if readable:
                        # Into a buffer of the writer's own: a fresh one per read
                        # costs a page fault per 4 kB.
                        size = os.readv(from_child, [self._chunk])
                        if not size:
                            raise EOFError("the render child closed its answers")
                        self._inbox += self._chunk[:size]
                    answers = self._answers()
                except (OSError, EOFError, ValueError) as error:
                    raise self._child_gone() from error
                for data, per_template in answers:  # one write per batch
                    self._file.write(data)
                    self._file.flush()
                    whole += len(data)
                    self._sent.popleft()
                    _tally(self._on_disk, per_template)
                if not waiting:
                    return
        except BaseException:
            self._abandon(whole)
            raise

    def _answers(self) -> List[Tuple[bytes, Dict[str, int]]]:
        """The whole answers in the inbox, in order, taken out of it."""
        inbox, answers = self._inbox, []
        while len(inbox) >= 8:
            end = 8 + int.from_bytes(inbox[:8], "little")
            if len(inbox) < end:
                break
            answers.append(marshal.loads(inbox[8:end]))
            del inbox[:end]
        return answers

    def _start_child(self) -> "subprocess.Popen[bytes]":
        import fcntl
        import subprocess

        self._child = child = subprocess.Popen(
            [sys.executable, "-I", "-S", render_module.__file__],
            bufsize=0,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            start_new_session=True,  # a Ctrl-C reaches the session, not its child
        )
        set_pipe_size = getattr(fcntl, "F_SETPIPE_SZ", None)  # Linux only
        if set_pipe_size is not None:
            for pipe in (child.stdin, child.stdout):
                with suppress(OSError):  # over the user's pipe quota: the default size
                    fcntl.fcntl(pipe.fileno(), set_pipe_size, _PIPE_BYTES)
        os.set_blocking(child.stdin.fileno(), False)
        _keep_off_this_cpu(child.pid)
        self._chunk = memoryview(bytearray(_PIPE_BYTES))
        return child

    def _child_gone(self) -> TraceError:
        import subprocess

        try:
            code = self._child.wait(timeout=1.0)
        except subprocess.TimeoutExpired:
            code = None
        return TraceError(
            f"the render child of trace {self.path} stopped (exit code {code}); "
            "the file holds the lines of its last whole write"
        )

    def _stop_child(self, kill: bool) -> None:
        child, self._child = self._child, None
        if child is None:
            return
        if kill:
            with suppress(OSError):
                child.kill()
        for pipe in (child.stdin, child.stdout):
            with suppress(OSError):
                pipe.close()
        child.wait()

    def _abandon(self, whole: int) -> None:
        file, self._file, self.buffer = self._file, None, _ClosedBuffer(self.path)
        self._sent.clear()
        self._outbox.clear()
        self._inbox.clear()
        self._stop_child(kill=True)
        with suppress(OSError):  # bytes of the failed write may still be pending
            file.close()
        with suppress(OSError):
            os.truncate(self.path, whole)

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _keep_off_this_cpu(pid: int) -> None:
    """Let process ``pid`` run on this thread's CPUs except the one it runs on now.

    A pipe write wakes its reader on the writer's CPU when the writer runs
    there alone (a synchronous wake-up): the render child, woken by every
    batch, would share the session's CPU while another one idles.  Where
    the host does not say which CPU this is (not Linux), or the thread has
    one CPU, ``pid`` keeps them all.
    """
    try:
        with open("/proc/thread-self/stat", "rb") as handle:
            # The 39th field, ``processor``: the 37th after the command name.
            here = int(handle.read().rsplit(b")", 1)[1].split()[36])
        elsewhere = os.sched_getaffinity(0) - {here}
        if elsewhere:
            os.sched_setaffinity(pid, elsewhere)
    except (AttributeError, IndexError, OSError, ValueError):
        pass


def _tally(counts: Dict[str, int], per_template: Dict[str, int]) -> None:
    """Add lines counted per template to ``counts`` per kind."""
    for template, count in per_template.items():
        kind = _KINDS[template]
        counts[kind] = counts.get(kind, 0) + count


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
