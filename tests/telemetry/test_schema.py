"""Trace schema round-trip, structural validation and version gating."""

import errno
import json

import pytest

from repro.core.session import SessionConfig, StreamingSession
from repro.telemetry.cli import main
from repro.telemetry import schema
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.schema import (
    EVENT_KINDS,
    LAG_BATCHES,
    TRACE_SCHEMA,
    TraceError,
    TraceWriter,
    iter_events,
    read_header,
    validate_trace,
)


def write_trace(path, events, meta=None):
    with TraceWriter(path, meta=meta) as writer:
        for kind, time, fields in events:
            writer.append(kind, time, **fields)
    return path


class TestWriterRoundTrip:
    def test_header_then_events(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(
            path,
            [
                ("send", 0.5, {"snd": 0, "rcv": 3, "mk": "serve", "sz": 1000, "d": 0, "fin": 0.6}),
                ("deliver_msg", 0.7, {"snd": 0, "rcv": 3, "mk": "serve", "sz": 1000, "d": 0}),
            ],
            meta={"seed": 7},
        )
        header = read_header(path)
        assert header.schema == TRACE_SCHEMA == "repro.telemetry/1"
        assert header.meta == {"seed": 7}
        events = list(iter_events(path))
        assert [event["i"] for event in events] == [0, 1]
        assert [event["k"] for event in events] == ["send", "deliver_msg"]
        assert events[0]["d"] == 0 and events[0]["fin"] == 0.6

    def test_writer_counts(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path) as writer:
            writer.append("round", 0.0, n=1, np=7)
            writer.append("round", 0.1, n=2, np=7)
            writer.append("packet", 0.2, n=1, p=0, source=False)
            assert writer.events_written == 3
            assert writer.counts_by_kind == {"round": 2, "packet": 1}

    def test_a_writer_sends_a_batch_every_flush_every_records(self, tmp_path):
        """Every trace is batched alike: the size is a constant, not an option."""
        assert schema.FLUSH_EVERY == 1000
        with TraceWriter(tmp_path / "t.jsonl") as writer:
            for n in range(1, schema.FLUSH_EVERY):
                writer.append("round", n / 10, n=n, np=1)
            assert len(writer.buffer) == schema.FLUSH_EVERY - 1
            writer.append("round", 100.0, n=schema.FLUSH_EVERY, np=1)
            assert writer.buffer == []
            assert writer.events_written == schema.FLUSH_EVERY
        assert validate_trace(tmp_path / "t.jsonl")[1] == schema.FLUSH_EVERY

    def test_flush_every_bounds_buffering(self, tmp_path, monkeypatch):
        """The file trails the records by less than ``LAG_BATCHES + 1`` batches."""
        monkeypatch.setattr(schema, "FLUSH_EVERY", 2)
        path = tmp_path / "t.jsonl"
        writer = TraceWriter(path)
        behind = []
        for n in range(1, 101):
            writer.append("round", n / 10, n=n, np=1)
            on_disk = len(path.read_text().strip().splitlines()) - 1
            assert on_disk % 2 == 0, "one write per batch"
            behind.append(n - on_disk)
        assert max(behind) < (LAG_BATCHES + 1) * 2
        writer.close()
        assert validate_trace(path)[1] == 100
        writer.close()  # idempotent

    def test_equal_times_of_other_types_keep_their_own_text(self, tmp_path):
        """``1`` and ``1.0`` (or ``True``) are equal, but their JSON is not."""
        path = tmp_path / "t.jsonl"
        times = [1, 1.0, True, 1.0, 0.0, -0.0, 0, 2.5, 2.5]
        with TraceWriter(path) as writer:
            for n, time in enumerate(times):
                writer.write("round", time, n, 1)
        assert [line.split(",")[1] for line in path.read_text().splitlines()[1:]] == [
            '"t":' + json.dumps(time) for time in times
        ]

    def test_append_fills_one_template_per_kind(self, tmp_path):
        path = tmp_path / "t.jsonl"
        events = [("50%", 0.5, {"a": "%d"}), ("50%", 0.5, {}), ("round", 0.6, {"n": 1, "np": 2})]
        with TraceWriter(path) as writer:
            for kind, time, fields in events:
                writer.append(kind, time, **fields)
            assert writer.counts_by_kind == {"50%": 2, "round": 1}
        assert path.read_text().splitlines()[1:] == [
            json.dumps({"i": i, "t": time, "k": kind, **fields}, separators=(",", ":"))
            for i, (kind, time, fields) in enumerate(events)
        ]

    def test_append_after_close_raises_at_once(self, tmp_path):
        """A closed writer used to buffer and count up to ``FLUSH_EVERY - 1``
        events that could never reach the file, raising only on the flush."""
        path = tmp_path / "t.jsonl"
        writer = TraceWriter(path)
        writer.append("round", 0.0, n=1, np=1)
        writer.close()
        with pytest.raises(TraceError, match="closed"):
            writer.append("round", 0.1, n=2, np=1)
        with pytest.raises(TraceError, match="closed"):
            writer.write("round", 0.1, 2, 1)
        assert writer.events_written == 1
        assert writer.counts_by_kind == {"round": 1}
        assert validate_trace(path)[1] == 1

    def test_validate_trace_accepts_well_formed(self, tmp_path):
        path = write_trace(
            tmp_path / "t.jsonl",
            [("round", 0.0, {"n": 1, "np": 7}), ("round", 0.0, {"n": 2, "np": 7})],
        )
        header, count = validate_trace(path)
        assert count == 2
        assert header.schema == TRACE_SCHEMA


class _FullDisk:
    """A trace file that accepts ``good_flushes`` writes, then half of one."""

    def __init__(self, file, good_flushes, error):
        self._file = file
        self._left = good_flushes
        self._error = error

    def write(self, data):
        if self._left == 0:
            self._file.write(data[: len(data) // 2])
            raise self._error
        self._left -= 1
        return self._file.write(data)

    def __getattr__(self, name):
        return getattr(self._file, name)


class TestDiskFull:
    @pytest.mark.parametrize(
        "error",
        [OSError(errno.ENOSPC, "No space left on device"), KeyboardInterrupt()],
        ids=["disk-full", "interrupted"],
    )
    def test_run_ends_with_the_flush_error_and_a_whole_trace(self, tmp_path, error):
        path = tmp_path / "t.jsonl"
        telemetry = TelemetryConfig(metrics=True, trace_path=str(path))
        session = StreamingSession(SessionConfig(num_nodes=8, seed=11, telemetry=telemetry))
        session.build()
        writer = session.telemetry.writer
        writer._file = _FullDisk(writer._file, good_flushes=3, error=error)
        with pytest.raises(type(error)) as caught:
            session.run()
        # The flush's own error, raised once: close() did not re-flush the
        # same lines into a second failure (or a second copy) chained onto it.
        assert caught.value is error
        assert caught.value.__context__ is None
        # Three whole flushes on disk, the torn fourth cut away, nothing more counted.
        assert validate_trace(path)[1] == 3000
        assert writer.events_written == 3000 == sum(writer.counts_by_kind.values())
        assert path.read_bytes().endswith(b"}\n")
        with pytest.raises(TraceError, match="closed"):
            writer.append("round", 9.0, n=1, np=1)
        assert main(["summarize", str(path)]) == 0


class TestVersioning:
    def test_foreign_schema_raises(self, tmp_path):
        path = tmp_path / "foreign.jsonl"
        path.write_text(json.dumps({"schema": "someone.else/1", "meta": {}}) + "\n")
        with pytest.raises(TraceError, match="foreign schema"):
            read_header(path)

    def test_future_major_version_raises(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({"schema": "repro.telemetry/2", "meta": {}}) + "\n")
        with pytest.raises(TraceError, match="major version"):
            read_header(path)

    def test_missing_schema_tag_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"meta": {}}) + "\n")
        with pytest.raises(TraceError, match="no schema tag"):
            read_header(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TraceError):
            read_header(path)

    def test_non_json_header_raises(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TraceError):
            read_header(path)


class TestStructuralValidation:
    def _trace_with_lines(self, tmp_path, lines):
        path = tmp_path / "t.jsonl"
        header = json.dumps({"schema": TRACE_SCHEMA, "meta": {}})
        path.write_text("\n".join([header] + lines) + "\n")
        return path

    def test_gap_in_index_raises(self, tmp_path):
        path = self._trace_with_lines(
            tmp_path,
            [
                json.dumps({"i": 0, "t": 0.0, "k": "round", "n": 1, "np": 1}),
                json.dumps({"i": 2, "t": 0.1, "k": "round", "n": 2, "np": 1}),
            ],
        )
        with pytest.raises(TraceError, match="event index"):
            validate_trace(path)

    def test_unknown_kind_raises(self, tmp_path):
        path = self._trace_with_lines(
            tmp_path, [json.dumps({"i": 0, "t": 0.0, "k": "not-a-kind"})]
        )
        with pytest.raises(TraceError, match="unknown kind"):
            validate_trace(path)

    def test_time_regression_raises(self, tmp_path):
        path = self._trace_with_lines(
            tmp_path,
            [
                json.dumps({"i": 0, "t": 5.0, "k": "round", "n": 1, "np": 1}),
                json.dumps({"i": 1, "t": 4.0, "k": "round", "n": 2, "np": 1}),
            ],
        )
        with pytest.raises(TraceError, match="regresses"):
            validate_trace(path)

    def test_every_kind_is_writable_and_validates(self, tmp_path):
        path = tmp_path / "all-kinds.jsonl"
        with TraceWriter(path) as writer:
            for kind in EVENT_KINDS:
                writer.append(kind, 1.0)
        _, count = validate_trace(path)
        assert count == len(EVENT_KINDS)
