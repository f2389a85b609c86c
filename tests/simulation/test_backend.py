"""The one dispatch loop: ordering, cancellation, observers, budgets.

:func:`repro.simulation.backend.run_loop` inlines the queue pop, so its
edges are pinned here directly — same-instant siblings cancelling each
other, zero-delay reschedules, ``clear()`` from a callback, the observer
edge, exact event budgets — together with what is built on it:
``Simulator.step()`` and the loop's name in trace headers.
"""

import pytest

from repro.simulation.engine import Simulator
from repro.simulation.errors import SimulationTimeError


def _build_workload(simulator, trace):
    """Same-instant runs, zero-delay reschedules, sibling cancellation,
    handled and fire-and-forget events, interleaved on one queue."""

    def record(label):
        trace.append((label, simulator.now, simulator.events_processed))

    def fan_out(label, count):
        record(label)
        for index in range(count):
            simulator.schedule(0.0, record, f"{label}/instant-{index}")
            simulator.schedule(0.25, record, f"{label}/later-{index}")

    def cancel_sibling(doomed, label):
        record(label)
        doomed["handle"].cancel()

    for step in range(4):
        base = float(step)
        simulator.schedule_at(base + 0.5, fan_out, f"fan-{step}", 3)
        doomed = {}
        simulator.schedule_at(base + 0.5, cancel_sibling, doomed, f"canceller-{step}")
        doomed["handle"] = simulator.schedule_at(base + 0.5, record, f"doomed-{step}")
        simulator.schedule_fire_and_forget(base + 0.75, record, f"fire-{step}")


class _Watcher:
    def __init__(self):
        self.dispatches = []

    def on_event_dispatch(self, time, callback, args):
        self.dispatches.append((time, args))


class TestRunLoop:
    def test_the_loop_is_python_whatever_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "fortran")
        assert Simulator(seed=1).backend_name == "python"

    def test_cancelling_a_same_instant_sibling_is_honoured(self):
        simulator = Simulator(seed=0)
        fired = []
        victim = {}
        # The canceller has the smaller sequence, so it dispatches first and
        # must suppress the victim queued for the same instant.
        simulator.schedule_at(1.0, lambda: victim["handle"].cancel())
        victim["handle"] = simulator.schedule_at(1.0, fired.append, "victim")
        assert simulator.run_until_idle() == 1
        assert fired == []
        assert simulator.pending_events == 0

    def test_zero_delay_reschedule_runs_after_its_siblings(self):
        simulator = Simulator(seed=0)
        order = []

        def first():
            order.append("first")
            simulator.schedule(0.0, order.append, "spawned")

        simulator.schedule_at(1.0, first)
        simulator.schedule_at(1.0, order.append, "second")
        simulator.run_until_idle()
        assert order == ["first", "second", "spawned"]

    def test_observers_see_every_event_at_its_time(self):
        simulator = Simulator(seed=0)
        watcher = _Watcher()
        simulator.add_observer(watcher)
        seen_by_callback = []
        for index in range(3):
            simulator.schedule_at(
                1.0 + index, lambda _index: seen_by_callback.append(len(watcher.dispatches)), index
            )
        simulator.run_until_idle()
        assert watcher.dispatches == [(1.0, (0,)), (2.0, (1,)), (3.0, (2,))]
        # The edge fires before the callback it announces.
        assert seen_by_callback == [1, 2, 3]

    def test_observer_added_mid_run_sees_the_next_event(self):
        simulator = Simulator(seed=0)
        watcher = _Watcher()
        simulator.schedule_at(1.0, simulator.add_observer, watcher)
        simulator.schedule_at(2.0, lambda: None)
        simulator.run_until_idle()
        assert [time for time, _args in watcher.dispatches] == [2.0]

    def test_max_events_is_exact(self):
        simulator = Simulator(seed=0)
        for index in range(10):
            simulator.schedule_at(1.0, lambda _index: None, index)
        assert simulator.run(max_events=4) == 4
        assert simulator.pending_events == 6
        assert simulator.run(max_events=0) == 0
        assert simulator.events_processed == 4

    def test_an_event_behind_the_clock_is_refused(self):
        simulator = Simulator(seed=0, start_time=5.0)
        simulator._queue.push(1.0, lambda: None)  # behind schedule_at's guard
        with pytest.raises(SimulationTimeError, match="backwards"):
            simulator.run_until_idle()

    def test_step_is_run_with_a_budget_of_one(self):
        def drive(advance):
            """Advance until idle; return (what ran and what observers saw, calls made)."""
            simulator = Simulator(seed=42)
            watcher = _Watcher()
            simulator.add_observer(watcher)
            trace = []
            _build_workload(simulator, trace)
            calls = 0
            while advance(simulator):
                calls += 1
            return (trace, simulator.now, [time for time, _args in watcher.dispatches]), calls

        whole, _ = drive(lambda simulator: simulator.run() > 0)
        stepped, steps = drive(lambda simulator: simulator.step())
        budgeted, budgeted_runs = drive(lambda simulator: simulator.run(max_events=1) == 1)
        assert stepped == budgeted == whole
        assert steps == budgeted_runs == len(whole[0])  # one trace entry per event
        assert not any(label.startswith("doomed") for label, _now, _count in whole[0])


class TestFireAndForget:
    def test_negative_delay_rejected(self, simulator):
        with pytest.raises(SimulationTimeError):
            simulator.schedule_fire_and_forget(-0.1, lambda: None)

    def test_runs_like_schedule(self, simulator):
        fired = []
        simulator.schedule_fire_and_forget(1.0, fired.append, "a")
        simulator.schedule(1.0, fired.append, "b")
        simulator.schedule_fire_and_forget(0.5, fired.append, "c")
        simulator.run_until_idle()
        assert fired == ["c", "a", "b"]
