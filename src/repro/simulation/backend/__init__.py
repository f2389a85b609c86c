"""The dispatch loop behind :meth:`Simulator.run`, and the seam that wraps it.

:func:`run_loop` is the only place an event is popped and its callback
called: discard cancelled heads, stop at the horizon or the event budget,
pop, advance the clock, count, show the event to the observers, call.
:meth:`Simulator.run` drives it directly, :meth:`Simulator.step` is the same
loop with a budget of one, and the sharded backend
(:mod:`repro.simulation.backend.sharded`) calls it once per conservative
window.  The loop reports itself as ``"python"`` in trace headers.

A :class:`SimulationBackend` passed to ``Simulator(backend=...)`` decides
*which stretches* of virtual time the loop runs and what happens between
them; :class:`~repro.simulation.backend.sharded.ShardedBackend` is the one
implementation.  It is not a way to swap the loop: a second, batched loop
selected by name or environment variable was tried and removed
(docs/performance.md, "Tried and removed").
"""

from __future__ import annotations

import heapq
from typing import Optional, Protocol, runtime_checkable

from repro.simulation.errors import SimulationTimeError


@runtime_checkable
class SimulationBackend(Protocol):
    """A named policy for driving :func:`run_loop` over a run.

    ``run_loop`` drives the simulator until the queue is exhausted, ``until``
    is reached, or ``max_events`` events ran; it returns the number of events
    executed.  The caller (:meth:`Simulator.run`) owns the re-entrancy guard
    and the final clock advance to ``until``.
    """

    name: str

    def run_loop(self, simulator, until: Optional[float], max_events: Optional[int]) -> int:
        """Execute due events in ``(time, sequence)`` order; return the count."""
        ...


def run_loop(simulator, until: Optional[float], max_events: Optional[int]) -> int:
    """Execute events with ``time <= until`` in ``(time, sequence)`` order.

    ``until=None`` runs until the queue is empty; ``max_events`` caps the
    number of events executed.  Returns that number.

    :meth:`EventQueue.pop` and :meth:`SimulationClock.advance_to` are inlined
    here — a method call each per event is 3–4 % of a session — so this
    function shares the queue's invariants: the heap list is only ever
    mutated in place (a callback may cancel or compact it while the loop
    holds the reference), ``_dead`` counts the cancelled entries
    still in it, and a popped handle is detached so a later ``cancel()``
    cannot touch that count.
    """
    queue = simulator._queue
    heap = queue._heap
    clock = simulator._clock
    heappop = heapq.heappop
    executed = 0
    while max_events is None or executed < max_events:
        while heap and heap[0].handle._cancelled:
            heappop(heap)
            queue._dead -= 1
        if not heap:
            break
        time = heap[0].time
        if until is not None and time > until:
            break
        event = heappop(heap)
        event.handle._queue = None
        if time < clock._now:
            raise SimulationTimeError(
                f"cannot move clock backwards from {clock._now!r} to {time!r}"
            )
        clock._now = time
        simulator._events_processed += 1
        executed += 1
        if simulator._observers is not None:
            for observer in simulator._observers:
                observer.on_event_dispatch(time, event.callback, event.args)
        event.callback(*event.args)
    return executed
