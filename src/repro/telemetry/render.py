"""Trace records to ``repro.telemetry/1`` lines: the render child.

A traced session keeps each event as a **record**, ``(template, t,
*values)``: the ``%``-template of its line (``{"i":%d,"t":%s,...}``), the
simulated time, and the field values in line order.  A value is an ``int``
or JSON text already (``str``); the last may be a ``float``, as a ``send``'s
``fin`` is.  :func:`render` numbers the lines, renders ``t`` and that
``float`` as :func:`json_text` does and fills the templates.  It is the only
place a line's bytes are made, so :func:`json_text` lives here and
:mod:`repro.telemetry.schema` imports it.

Run as a script, this module is the child a
:class:`~repro.telemetry.schema.TraceWriter` starts at its first flush,
``python -I -S render.py``.  It reads batches of records from its standard
input until end of file, each in :mod:`marshal` format behind its length in
8 little-endian bytes, and answers each the same way with ``(bytes, lines
per template)``.  The child keeps the line count across batches, since they
arrive in order; the session process writes the bytes to the file.  The
child imports nothing the interpreter has not loaded at start-up, until a
value needs ``json``: its start-up is on the session's clock whenever the
host has no idle core.
"""

import marshal
import sys


def _encode(value: object) -> str:
    """Compact ``json.dumps``; binds the encoder on first use."""
    global _encode
    import json

    _encode = json.JSONEncoder(separators=(",", ":")).encode
    return _encode(value)


def json_text(value: object) -> str:
    """Compact ``json.dumps(value)`` of one field value, byte for byte.

    Finite floats are their ``repr`` (what ``json`` emits for them); anything
    else — strings, bools, ``NaN``, infinities, foreign types — is left to
    ``json`` itself.
    """
    if type(value) is float and value - value == 0.0:
        return repr(value)
    return _encode(value)


def render(records: list, index: int) -> bytes:
    """The lines of ``records``, numbered from ``index``, as UTF-8 bytes.

    ``%s`` writes a finite float as its ``repr``, which is its JSON text, so
    only a last value that is a ``NaN`` or an infinity goes through
    :func:`json_text`.
    """
    lines: list = []
    append = lines.append
    last, time_text = None, "null"
    for index, record in enumerate(records, index):
        time = record[1]
        if time is not last:
            # Equal values share a text only as non-zero floats: 0.0 and
            # -0.0 differ, as do 1, 1.0 and True.
            if time != last or not time or type(time) is not float or type(last) is not float:
                time_text = json_text(time)
            last = time
        fin = record[-1]
        if type(fin) is float and fin - fin and len(record) > 2:
            append(record[0] % ((index, time_text) + record[2:-1] + (json_text(fin),)))
        else:
            append(record[0] % ((index, time_text) + record[2:]))
    append("")
    return "\n".join(lines).encode("utf-8")


def count_templates(records: list) -> dict:
    """Lines per template in ``records``, in order of first appearance."""
    counts: dict = {}
    for record in records:
        template = record[0]
        counts[template] = counts.get(template, 0) + 1
    return counts


def frame(message: object) -> bytes:
    """``message`` in :mod:`marshal` format behind its length in 8 little-endian bytes."""
    data = marshal.dumps(message)
    return len(data).to_bytes(8, "little") + data


def _receive(pipe) -> object:
    """One :func:`frame` from ``pipe``; ``EOFError`` at its end."""
    head = pipe.read(8)
    size = int.from_bytes(head, "little")
    data = pipe.read(size)
    if len(head) < 8 or len(data) < size:
        raise EOFError(f"{pipe!r} closed in the middle of a message")
    return marshal.loads(data)


def main() -> None:
    """Answer every batch on standard input until it closes, then exit."""
    import posix

    if hasattr(posix, "SCHED_BATCH"):
        # Woken by a batch, a normal task preempts the session that wrote it
        # on its own core; a batch task waits for a free one.
        posix.sched_setscheduler(0, posix.SCHED_BATCH, posix.sched_param(0))
    source, sink = sys.stdin.buffer, sys.stdout.buffer
    index = 0
    while True:
        try:
            records = _receive(source)
        except EOFError:
            # Every answer is flushed: the session waits for this exit, not
            # for an interpreter shutdown.
            posix._exit(0)
        sink.write(frame((render(records, index), count_templates(records))))
        sink.flush()
        index += len(records)


if __name__ == "__main__":
    main()
