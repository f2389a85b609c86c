"""A run that dies half-way leaves a partial but valid trace (ROADMAP 5(a))."""

import multiprocessing

import pytest

from repro.core.session import SessionConfig, StreamingSession
from repro.shard.runner import ShardProtocolError, run_sharded
from repro.shard.session import ShardSession
from repro.telemetry.cli import main
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.schema import TraceError, iter_events, validate_trace

FAULT_TIME = 3.0


def boom():
    raise RuntimeError("injected fault")


def traced_config(path, **overrides) -> SessionConfig:
    telemetry = TelemetryConfig(metrics=True, trace_path=str(path))
    return SessionConfig(num_nodes=8, seed=11, telemetry=telemetry, **overrides)


def assert_whole_trace_ending_at_the_fault(path, writer):
    """Closed, structurally valid, nothing buffered lost, last line = the fault."""
    with pytest.raises(TraceError, match="closed"):
        writer.append("round", 9.0, n=1, np=1)
    _header, count = validate_trace(path)
    assert count == writer.events_written == sum(writer.counts_by_kind.values())
    assert count % 1000, "the lines held in the buffer are the ones under test"
    last = list(iter_events(path))[-1]
    assert last == {"i": count - 1, "t": FAULT_TIME, "k": "dispatch", "fn": "boom"}
    assert main(["summarize", str(path)]) == 0


class TestAbortedRun:
    def test_handler_exception_still_closes_the_trace(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        session = StreamingSession(traced_config(path))
        session.build()
        session.simulator.schedule_at(FAULT_TIME, boom)
        with pytest.raises(RuntimeError, match="injected fault"):
            session.run()
        assert_whole_trace_ending_at_the_fault(path, session.telemetry.writer)
        assert "dispatch" in capsys.readouterr().out

    def test_successful_run_snapshots_once(self, tmp_path):
        session = StreamingSession(traced_config(tmp_path / "t.jsonl"))
        result = session.run()
        assert result.telemetry is session.telemetry.finalize()
        assert result.telemetry.trace_events == validate_trace(tmp_path / "t.jsonl")[1]

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_failed_shard_still_closes_its_trace(self, tmp_path, monkeypatch, mode):
        if mode == "process" and multiprocessing.get_start_method() != "fork":
            pytest.skip("a monkeypatched process worker needs the fork start method")
        path = tmp_path / "t.jsonl"
        sessions = {}
        real_build = ShardSession.build

        def build_then_arm(self):
            real_build(self)
            sessions[self.shard_id] = self
            if self.shard_id == 1:
                self.simulator.schedule_at(FAULT_TIME, boom)

        monkeypatch.setattr(ShardSession, "build", build_then_arm)
        failure = "injected fault" if mode == "thread" else r"(?s)shard 1 raised:.*injected fault"
        with pytest.raises((RuntimeError, ShardProtocolError), match=failure):
            run_sharded(traced_config(path, shards=2), mode=mode)
        # Shard 1 failed; shard 0 was healthy and aborted mid-run.  Both
        # traces are closed and whole, on disk in either mode.
        for shard_id in (0, 1):
            _header, count = validate_trace(f"{path}.shard{shard_id}")
            assert count % 1000, "the lines held in the buffer were flushed"
            assert main(["summarize", f"{path}.shard{shard_id}"]) == 0
        last = list(iter_events(f"{path}.shard1"))[-1]
        assert (last["t"], last["k"], last["fn"]) == (FAULT_TIME, "dispatch", "boom")
        if mode == "thread":  # the sessions lived here: their writers are closed
            assert_whole_trace_ending_at_the_fault(
                f"{path}.shard1", sessions[1].telemetry.writer
            )
            with pytest.raises(TraceError, match="closed"):
                sessions[0].telemetry.writer.append("round", 9.0, n=1, np=1)
        assert not multiprocessing.active_children()
