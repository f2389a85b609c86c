"""Property-based tests for the simulation kernel.

The scheduling verbs are checked against a sorted-list model of the live
``(time, sequence)`` keys.  Whatever sequence of ``schedule``,
``schedule_at``, ``schedule_fire_and_forget_at``, ``reserve`` followed by
``schedule_reserved``, a datagram sent through a :class:`Network` on the
same simulator (whose delivery the transport pushes itself), ``cancel``
(from the outside or from inside a running callback) and ``run`` is drawn,
the simulator dispatches exactly the model's keys in the model's order, and
``pending_events`` and ``peek_time`` agree with the model.
"""

import bisect

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.latency import ConstantLatency
from repro.network.message import Message
from repro.network.transport import Network
from repro.simulation.engine import Simulator
from repro.simulation.errors import SimulationTimeError

#: Few distinct delays, so same-instant ties (ordered by sequence) are common.
DELAYS = st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, 2.5])
#: An index into the handles or slots drawn so far, taken modulo their count.
INDEX = st.integers(min_value=0, max_value=63)
#: The handled event a callback cancels when it runs, if any.
VICTIM = st.none() | INDEX

OPS = st.one_of(
    st.tuples(st.just("schedule"), DELAYS, VICTIM),
    st.tuples(st.just("schedule_at"), DELAYS, VICTIM),
    st.tuples(st.just("fire_and_forget_at"), DELAYS, VICTIM),
    st.tuples(st.just("send"), DELAYS, VICTIM),
    st.tuples(st.just("reserve"), DELAYS),
    st.tuples(st.just("schedule_reserved"), INDEX, VICTIM),
    st.tuples(st.just("cancel"), INDEX),
    st.tuples(st.just("run"), st.none() | DELAYS, st.none() | st.integers(0, 5)),
)


class KeyModel:
    """The live ``(time, sequence)`` keys, sorted, and the key each one cancels when it runs."""

    def __init__(self):
        self.now = 0.0
        self.sequence = 0
        self.live = []
        self.victims = {}

    def take(self, time):
        self.sequence += 1
        return (time, self.sequence - 1)

    def add(self, key, victim):
        bisect.insort(self.live, key)
        self.victims[key] = victim

    def discard(self, key):
        index = bisect.bisect_left(self.live, key)
        if index < len(self.live) and self.live[index] == key:
            del self.live[index]

    def run(self, until, max_events):
        ran = []
        while self.live:
            key = self.live[0]
            if until is not None and key[0] > until:
                break
            if len(ran) == max_events:
                return ran  # the budget ran out first: the clock stays
            del self.live[0]
            self.now = key[0]
            ran.append(key)
            if self.victims[key] is not None:
                self.discard(self.victims[key])
        if until is not None and self.now < until:
            self.now = until
        return ran


class TestSimulatorMatchesKeyModel:
    @given(st.lists(OPS, max_size=60))
    @settings(deadline=None)
    def test_the_verbs_match_a_sorted_list_of_live_keys(self, ops):
        simulator = Simulator(seed=1)
        model = KeyModel()
        dispatched = []
        handles = []  # (handle, model key) of every event scheduled with a handle
        slots = []  # reserved keys not scheduled yet

        def callback(key, victim):
            assert simulator.now == key[0]
            dispatched.append(key)
            simulator.cancel(victim)

        # A datagram from node 0 to node 1 is delivered one latency later.
        latency = ConstantLatency(0.0)
        network = Network(simulator, latency_model=latency)
        network.register(0, lambda message: None)
        network.register(1, lambda message: callback(*message.payload))

        def victim_of(index):
            if index is None or not handles:
                return None, None
            return handles[index % len(handles)]

        for op in ops:
            verb = op[0]
            if verb == "run":
                _, offset, max_events = op
                until = None if offset is None else model.now + offset
                expected = model.run(until, max_events)
                start = len(dispatched)
                assert simulator.run(until=until, max_events=max_events) == len(expected)
                assert dispatched[start:] == expected
                assert simulator.now == model.now
                assert simulator.peek_time() == (model.live[0][0] if model.live else None)
            elif verb == "cancel":
                if handles:
                    handle, key = handles[op[1] % len(handles)]
                    simulator.cancel(handle)
                    model.discard(key)
            elif verb == "reserve":
                key = model.take(model.now + op[1])
                assert simulator.reserve(op[1]) == key
                slots.append(key)
            elif verb == "schedule_reserved":
                if not slots:
                    continue
                key = slots.pop(op[1] % len(slots))
                victim, victim_key = victim_of(op[2])
                if key[0] < model.now:
                    with pytest.raises(SimulationTimeError):
                        simulator.schedule_reserved(key, callback, key, victim)
                    continue
                handle = simulator.schedule_reserved(key, callback, key, victim)
                assert (handle.time, handle.sequence) == key
                handles.append((handle, key))
                model.add(key, victim_key)
            else:
                delay = op[1]
                victim, victim_key = victim_of(op[2])
                key = model.take(model.now + delay)
                if verb == "schedule":
                    handle = simulator.schedule(delay, callback, key, victim)
                elif verb == "schedule_at":
                    handle = simulator.schedule_at(key[0], callback, key, victim)
                elif verb == "send":
                    latency.delay = delay
                    assert network.send(Message(0, 1, "key", 40, (key, victim)))
                    handle = None
                else:
                    handle = simulator.schedule_fire_and_forget_at(key[0], callback, key, victim)
                if handle is not None:
                    assert (handle.time, handle.sequence) == key
                    handles.append((handle, key))
                model.add(key, victim_key)
            assert simulator.pending_events == len(model.live)

        assert simulator.peek_time() == (model.live[0][0] if model.live else None)
        expected = model.run(None, None)
        assert simulator.run_until_idle() == len(expected)
        assert dispatched[len(dispatched) - len(expected):] == expected
        assert simulator.pending_events == 0


class TestEventQueueProperties:
    """The heap over arbitrary float instants, where the model test draws a few delays."""

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=100))
    def test_events_always_pop_in_nondecreasing_time_order(self, times):
        simulator = Simulator(seed=1)
        popped = []
        for time in times:
            simulator.schedule_at(time, lambda: popped.append(simulator.now))
        assert simulator.run_until_idle() == len(times)
        assert popped == sorted(popped)
        assert len(popped) == len(times)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e3, allow_nan=False), min_size=1, max_size=50),
        st.data(),
    )
    def test_cancellation_never_loses_other_events(self, times, data):
        simulator = Simulator(seed=1)
        fired = []
        handles = [
            simulator.schedule_at(time, fired.append, index) for index, time in enumerate(times)
        ]
        to_cancel = data.draw(
            st.sets(st.integers(min_value=0, max_value=len(times) - 1), max_size=len(times))
        )
        for index in to_cancel:
            handles[index].cancel()
        assert simulator.run_until_idle() == len(times) - len(to_cancel)
        assert sorted(fired) == [i for i in range(len(times)) if i not in to_cancel]


class TestSimulatorProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=50))
    @settings(deadline=None)
    def test_clock_is_monotone_across_any_schedule(self, delays):
        simulator = Simulator(seed=1)
        observed = []
        for delay in delays:
            simulator.schedule(delay, lambda: observed.append(simulator.now))
        simulator.run_until_idle()
        assert observed == sorted(observed)

    @given(st.integers(min_value=0, max_value=2**32), st.text(min_size=1, max_size=20))
    def test_named_streams_reproducible(self, seed, name):
        first = Simulator(seed=seed).rng.stream(name).random()
        second = Simulator(seed=seed).rng.stream(name).random()
        assert first == second
