"""The trace writer's render child: started late, reaped always, loud when lost.

A traced session keeps records and a child process renders the lines
(:mod:`repro.telemetry.render`).  These tests read the process table under
``/proc`` to see which children exist: a render child is any process whose
command line runs the render module, and any process this one started and
has not reaped (a zombie has no command line) counts as left behind too.
"""

import errno
import os
import signal
import sys
from pathlib import Path

import pytest

from repro.core.session import StreamingSession
from repro.shard.runner import ShardProtocolError, run_sharded
from repro.shard.session import ShardSession
from repro.telemetry import render, schema
from repro.telemetry.schema import TraceError, TraceWriter, iter_events, validate_trace
from tests.telemetry.test_failure_paths import FAULT_TIME, boom, traced_config
from tests.telemetry.test_schema import _FullDisk

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads the process table under /proc"
)

RENDER_MODULE = str(Path(render.__file__))


def _processes():
    """``{pid: (parent pid, argv)}`` of every process in the table."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                argv = handle.read().split(b"\0")[:-1]
        except OSError:  # it exited while we looked
            continue
        parent = int(stat[stat.rindex(b")") + 2:].split()[1])
        table[int(entry)] = (parent, [arg.decode(errors="replace") for arg in argv])
    return table


def render_children():
    """Pids of the render children running anywhere, and of this process's unreaped children."""
    me = os.getpid()
    return {
        pid for pid, (parent, argv) in _processes().items()
        if RENDER_MODULE in argv or (parent == me and not argv)
    }


def own_render_children():
    me = os.getpid()
    return [
        pid for pid, (parent, argv) in _processes().items()
        if parent == me and RENDER_MODULE in argv
    ]


@pytest.fixture
def no_child_left():
    """Fails the test if it leaves a render child (or an unreaped child) behind."""
    before = render_children()
    yield
    assert render_children() - before == set()


@pytest.mark.usefixtures("no_child_left")
class TestReaped:
    def test_after_a_traced_run(self, tmp_path):
        result = StreamingSession(traced_config(tmp_path / "t.jsonl")).run()
        assert result.telemetry.trace_events == validate_trace(tmp_path / "t.jsonl")[1] > 1000

    def test_after_a_handler_exception(self, tmp_path):
        session = StreamingSession(traced_config(tmp_path / "t.jsonl"))
        session.build()
        session.simulator.schedule_at(FAULT_TIME, boom)
        with pytest.raises(RuntimeError, match="injected fault"):
            session.run()

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_after_a_failed_shard(self, tmp_path, monkeypatch, mode):
        import multiprocessing

        if mode == "process" and multiprocessing.get_start_method() != "fork":
            pytest.skip("a monkeypatched process worker needs the fork start method")
        real_build = ShardSession.build

        def build_then_arm(self):
            real_build(self)
            if self.shard_id == 1:
                self.simulator.schedule_at(FAULT_TIME, boom)

        monkeypatch.setattr(ShardSession, "build", build_then_arm)
        path = tmp_path / "t.jsonl"
        with pytest.raises((RuntimeError, ShardProtocolError), match="injected fault"):
            run_sharded(traced_config(path, shards=2), mode=mode)
        for shard_id in (0, 1):
            assert validate_trace(f"{path}.shard{shard_id}")[1] > 0

    @pytest.mark.parametrize(
        "error",
        [OSError(errno.ENOSPC, "No space left on device"), KeyboardInterrupt()],
        ids=["disk-full", "interrupted"],
    )
    def test_after_a_failed_write(self, tmp_path, error):
        session = StreamingSession(traced_config(tmp_path / "t.jsonl"))
        session.build()
        writer = session.telemetry.writer
        writer._file = _FullDisk(writer._file, good_flushes=3, error=error)
        with pytest.raises(type(error)):
            session.run()
        assert validate_trace(tmp_path / "t.jsonl")[1] == 3000


def test_a_built_session_that_never_runs_starts_no_child(tmp_path, no_child_left):
    before = render_children()
    session = StreamingSession(traced_config(tmp_path / "t.jsonl"))
    session.build()
    assert render_children() == before
    session.telemetry.finalize()
    assert render_children() == before
    assert validate_trace(tmp_path / "t.jsonl")[1] == 0


def test_a_killed_child_ends_the_run_with_a_trace_error(tmp_path, no_child_left):
    path = tmp_path / "t.jsonl"
    session = StreamingSession(traced_config(path))
    session.build()
    killed = []

    def kill_the_render_child():
        for pid in own_render_children():
            os.kill(pid, signal.SIGKILL)
            killed.append(pid)

    session.simulator.schedule_at(FAULT_TIME, kill_the_render_child)
    with pytest.raises(TraceError, match=r"render child .* stopped \(exit code -9\)"):
        session.run()
    assert len(killed) == 1
    _header, count = validate_trace(path)
    assert count % 1000 == 0, "the file ends at its last whole write"
    writer = session.telemetry.writer
    assert writer.events_written == count == sum(writer.counts_by_kind.values())
    with pytest.raises(TraceError, match="closed"):
        writer.append("round", 9.0, n=1, np=1)


def test_the_child_may_run_on_every_cpu_but_the_sessions(tmp_path, no_child_left, monkeypatch):
    """A batch written to the pipe would wake the child on the session's own CPU."""
    def own_children():
        return {pid for pid, (parent, _argv) in _processes().items() if parent == os.getpid()}

    monkeypatch.setattr(schema, "FLUSH_EVERY", 1)
    writer = TraceWriter(tmp_path / "t.jsonl")
    try:
        before = own_children()
        writer.write("round", 0.0, 1, 1)
        # Its placement is set as it starts, maybe before it runs the module.
        (child,) = own_children() - before
        ours = os.sched_getaffinity(0)
        assert os.sched_getaffinity(child) < ours or len(ours) == 1
    finally:
        writer.close()


@pytest.mark.parametrize("first", [0, 1], ids=["opened-first-closes-first", "last-first"])
def test_two_writers_in_one_process_close_in_either_order(
    tmp_path, first, no_child_left, monkeypatch
):
    monkeypatch.setattr(schema, "FLUSH_EVERY", 100)
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    writers = [TraceWriter(path) for path in paths]
    for n in range(2500):
        for number, writer in enumerate(writers):
            writer.write("round", n / 10, number, n)
    assert len(own_render_children()) == 2
    for writer in (writers[first], writers[1 - first]):
        writer.close()
    for number, path in enumerate(paths):
        assert validate_trace(path)[1] == 2500
        assert {event["n"] for event in iter_events(path)} == {number}


def test_an_interrupt_in_the_session_leaves_the_child_to_write_every_line(
    tmp_path, no_child_left
):
    """Ctrl-C reaches the terminal's process group; the child runs in a session of its own."""
    path = tmp_path / "t.jsonl"
    session = StreamingSession(traced_config(path))
    session.build()
    child_sessions = []

    def interrupt():
        child_sessions.extend(os.getsid(pid) for pid in own_render_children())
        raise KeyboardInterrupt

    session.simulator.schedule_at(FAULT_TIME, interrupt)
    with pytest.raises(KeyboardInterrupt):
        session.run()
    assert len(child_sessions) == 1 and child_sessions[0] != os.getsid(0)
    _header, count = validate_trace(path)
    assert count % 1000, "the lines held in the buffer were written too"
    last = list(iter_events(path))[-1]
    assert (last["t"], last["k"], last["fn"].rsplit(".", 1)[-1]) == (
        FAULT_TIME, "dispatch", "interrupt"
    )
