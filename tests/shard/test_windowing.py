"""Window-edge unit tests for a shard's conservative window loop.

The multi-shard machinery is only trustworthy if the windowing itself is:
these tests drive :meth:`ShardSession.open` and :meth:`ShardSession.step` on
a bare :class:`~repro.simulation.engine.Simulator` with scripted coordinator
replies, no network or session build involved — the strict-bound contract
(an event exactly at a window bound belongs to the *next* window), the
inclusive final stretch at ``until``, and a repeated bound that runs nothing.
"""

import math
from types import SimpleNamespace

from repro.shard.session import ShardSession, WindowReply
from repro.simulation.engine import Simulator


class ScriptedShard(ShardSession):
    """The window loop alone: a bare simulator, replies from ``coordinator``.

    ``coordinator(bound)`` returns ``(next_bound, done)`` like a window
    reply; each report records the bound and the events processed so far.
    """

    def __init__(self, simulator, lookahead, coordinator):
        self.simulator = simulator
        self.shard_id = 0
        self.network = SimpleNamespace(schedule_delivery=None)
        self._plan = SimpleNamespace(lookahead=lookahead)
        self._router = SimpleNamespace(flush=dict)
        self._coordinator = coordinator
        self.barriers = []

    def _start(self):
        return self.horizon

    def run_to(self, until):
        """Drive the loop the way the coordinator does, to ``until``."""
        self.horizon = until
        report = self.open()
        while report is not None:
            self.barriers.append((report.bound, self.simulator.events_processed))
            next_bound, done = self._coordinator(report.bound)
            report = self.step(WindowReply(next_bound=next_bound, done=done))


def replies(*scripted):
    """A coordinator answering with ``scripted`` replies in turn."""
    answers = iter(scripted)
    return lambda bound: next(answers)


def _cascade(simulator, trace):
    """A workload with chained events, simultaneous events, and edge times."""

    def emit(tag):
        trace.append((simulator.now, tag))

    def chain(i):
        emit(f"chain-{i}")
        if i < 30:
            simulator.schedule(0.013, chain, i + 1)

    simulator.schedule_at(0.0, chain, 0)
    for i in range(8):
        simulator.schedule_at(i * 0.037, emit, f"tick-{i}")
    simulator.schedule_at(0.1, emit, "on-window-edge")  # exactly k * lookahead
    simulator.schedule_at(0.5, emit, "at-horizon")  # exactly at until
    simulator.schedule_at(0.75, emit, "past-horizon")  # must stay pending


class TestWindowedRunLoop:
    def test_event_at_bound_belongs_to_next_window(self):
        simulator = Simulator(seed=1)
        ran = []
        simulator.schedule_at(1.0, ran.append, "before")
        simulator.schedule_at(2.0, ran.append, "at-bound")

        def coordinator(bound):
            if bound == 2.0:
                # The bound event is still pending, due for the next window...
                assert ran == ["before"]
                assert simulator.peek_time() == 2.0
                # ...where a cross-shard datagram due at that very instant
                # can still be merged in.
                simulator.schedule_fire_and_forget_at(2.0, ran.append, "inbound")
                return 5.0, False
            return 5.0, True

        ScriptedShard(simulator, 2.0, coordinator).run_to(5.0)
        assert ran == ["before", "at-bound", "inbound"]
        assert simulator.now == 5.0

    def test_event_just_below_the_bound_runs_in_its_window(self):
        # The window stops at the float just below its bound, not one ulp
        # earlier: the last representable instant before the bound still runs.
        simulator = Simulator(seed=1)
        ran = []
        simulator.schedule_at(math.nextafter(2.0, -math.inf), ran.append, "just-below")
        simulator.schedule_at(2.0, ran.append, "at-bound")
        shard = ScriptedShard(simulator, 2.0, replies((4.0, False), (4.0, True)))
        shard.run_to(4.0)
        assert shard.barriers == [(2.0, 1), (4.0, 2)]
        assert ran == ["just-below", "at-bound"]

    def test_an_event_spawned_at_the_bound_waits_for_the_next_window(self):
        simulator = Simulator(seed=1)
        ran = []

        def spawn():
            ran.append("parent")
            simulator.schedule_at(1.5, ran.append, "child-below")
            simulator.schedule_at(2.0, ran.append, "child-at-bound")

        simulator.schedule_at(1.0, spawn)
        shard = ScriptedShard(simulator, 2.0, replies((3.0, False), (3.0, True)))
        shard.run_to(3.0)
        assert shard.barriers == [(2.0, 2), (3.0, 3)]
        assert ran == ["parent", "child-below", "child-at-bound"]

    def test_first_bound_is_one_lookahead_from_now(self):
        # Every shard computes its first bound alone, from the clock it
        # starts the run at and the plan's lookahead.
        simulator = Simulator(seed=1)
        simulator.run(until=3.0)
        shard = ScriptedShard(simulator, 0.25, replies((5.0, False), (5.0, True)))
        shard.run_to(5.0)
        assert [bound for bound, _ in shard.barriers] == [3.25, 5.0]

    def test_lookahead_past_the_horizon_makes_one_inclusive_window(self):
        simulator = Simulator(seed=1)
        ran = []
        simulator.schedule_at(1.0, ran.append, "at-horizon")
        simulator.schedule_at(1.5, ran.append, "past-horizon")
        shard = ScriptedShard(simulator, 10.0, replies((1.0, True)))
        shard.run_to(1.0)
        assert shard.barriers == [(1.0, 1)]
        assert ran == ["at-horizon"]
        assert simulator.pending_events == 1

    def test_final_stretch_is_inclusive_at_until(self):
        until, lookahead = 0.5, 0.1
        simulator = Simulator(seed=1)

        def coordinator(bound):
            # Single-shard coordinator logic: jump past the next pending
            # event, cap at the horizon, finish once drained at the horizon.
            peek = simulator.peek_time()
            if bound < until:
                return (until if peek is None else min(until, peek + lookahead)), False
            return until, peek is None or peek > until

        shard = ScriptedShard(simulator, lookahead, coordinator)
        trace = []
        _cascade(simulator, trace)
        shard.run_to(until)

        oracle = Simulator(seed=1)
        oracle_trace = []
        _cascade(oracle, oracle_trace)
        assert simulator.events_processed == oracle.run(until=until)
        assert trace == oracle_trace
        tags = [tag for _, tag in trace]
        assert "at-horizon" in tags  # Simulator.run executes events at until
        assert "past-horizon" not in tags
        assert simulator.pending_events == 1  # the past-horizon event survives
        assert simulator.now == oracle.now == until
        # Bounds are monotone non-decreasing and end at the horizon.
        bounds = [bound for bound, _ in shard.barriers]
        assert bounds == sorted(bounds) and bounds[-1] == until

    def test_repeated_bound_runs_zero_events(self):
        simulator = Simulator(seed=1)
        for time in (0.5, 1.5, 2.5):
            simulator.schedule_at(time, lambda: None)
        shard = ScriptedShard(
            simulator, 1.0, replies((1.0, False), (2.0, False), (2.0, False), (2.0, True))
        )
        shard.run_to(2.0)
        # A shard parked on a repeated bound barriers again without running.
        assert shard.barriers == [(1.0, 1), (1.0, 1), (2.0, 2), (2.0, 2)]
        assert simulator.pending_events == 1

    def test_empty_queue_executes_nothing(self):
        simulator = Simulator(seed=1)
        shard = ScriptedShard(simulator, 1.0, replies((5.0, False), (5.0, True)))
        shard.run_to(5.0)
        assert shard.barriers == [(1.0, 0), (5.0, 0)]
        assert simulator.now == 5.0
