"""The simulation event loop.

:class:`Simulator` owns the clock, the event queue and the RNG registry.  All
other components (transport, gossip nodes, churn and join callbacks, probes)
hold a reference to the simulator and interact with it through a few verbs:

* ``schedule(delay, callback, *args)`` — run ``callback`` after ``delay``
  simulated seconds;
* ``schedule_at(time, callback, *args)`` — run at an absolute instant;
* ``reserve(delay)``, later ``schedule_reserved(slot, callback, *args)`` —
  ``schedule`` split in two, so an event that never runs is never queued;
* ``now`` — the current simulated time.

Running the simulation is ``run(until=...)`` or ``run_until_idle()``; both
drive the one dispatch loop, :func:`repro.simulation.backend.run_loop`.  A
shard of a sharded run (:class:`repro.shard.session.ShardSession`) calls
``run`` once per conservative time window, with ``until`` just below the
window's bound.

Observers
---------
The engine exposes its event-dispatch edge to registered observers
(:meth:`Simulator.add_observer`): immediately before a popped event's
callback runs, every observer's ``on_event_dispatch(time, callback, args)``
is invoked.  The validation layer (:mod:`repro.validation`) uses this to
check invariants such as event-time monotonicity on *every* run.  With no
observers registered the dispatch loop pays a single ``is None`` test per
event; what a registered no-op observer costs on top is ``noop_slowdown`` of
``python -m repro.bench run --filter observer-overhead``.
"""

from __future__ import annotations

import heapq
from typing import Any, List, Optional, Tuple

from repro.simulation.backend import run_loop
from repro.simulation.clock import SimulationClock
from repro.simulation.errors import SimulationStateError, SimulationTimeError
from repro.simulation.event_queue import EventCallback, EventHandle, EventQueue, ScheduledEvent
from repro.simulation.event_queue import _NEVER_CANCELLED, _new_event  # push, inlined below
from repro.simulation.rng import RngRegistry


class Simulator:
    """Discrete-event simulator: clock + event queue + named RNG streams.

    Parameters
    ----------
    seed:
        Root seed for the RNG registry.  Every random draw in an experiment
        descends from this seed, making runs reproducible.

    Simulated time starts at 0.
    """

    def __init__(self, seed: int = 0) -> None:
        self._clock = SimulationClock()
        self._queue = EventQueue()
        self._rng = RngRegistry(seed)
        self._running = False
        self._events_processed = 0
        # ``None`` (not an empty list) when nobody watches: the dispatch hot
        # path then pays exactly one attribute load + identity test per event.
        self._observers: Optional[List[Any]] = None

    # ------------------------------------------------------------------
    # Time and randomness
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._clock._now  # flattened: this property is read per send

    @property
    def rng(self) -> RngRegistry:
        """Registry of named deterministic random streams."""
        return self._rng

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far (for diagnostics/limits)."""
        return self._events_processed

    @property
    def backend_name(self) -> str:
        """What drives :meth:`run`: always ``"python"``, the one dispatch loop."""
        return "python"

    @property
    def pending_events(self) -> int:
        """Number of live events still queued."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: EventCallback, *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` ``delay`` seconds from now.

        ``delay`` must be non-negative; a zero delay schedules the callback
        for the current instant, after all events already queued for it.
        """
        if delay < 0.0:
            raise SimulationTimeError(f"cannot schedule with negative delay {delay!r}")
        # EventQueue.push inlined, as run_loop inlines pop (now + delay >= 0).
        queue = self._queue
        time = self._clock._now + delay
        handle = EventHandle(time=time, sequence=queue._sequence, _queue=queue)
        entry = (time, queue._sequence, callback, args, handle)
        heapq.heappush(queue._heap, _new_event(ScheduledEvent, entry))
        queue._sequence += 1
        return handle

    def reserve(self, delay: float) -> Tuple[float, int]:
        """Take the ``(time, sequence)`` key ``schedule(delay, ...)`` would take; queue nothing."""
        if delay < 0.0:
            raise SimulationTimeError(f"cannot reserve with negative delay {delay!r}")
        self._queue._sequence += 1
        return (self._clock._now + delay, self._queue._sequence - 1)

    def schedule_reserved(
        self, slot: Tuple[float, int], callback: EventCallback, *args: Any
    ) -> EventHandle:
        """Queue ``callback(*args)`` under a :meth:`reserve` key: it pops where it would have."""
        time, sequence = slot
        if time < self._clock._now:
            raise SimulationTimeError(f"reserved slot at {time!r} is before now")
        handle = EventHandle(time=time, sequence=sequence, _queue=self._queue)
        entry = (time, sequence, callback, args, handle)
        heapq.heappush(self._queue._heap, _new_event(ScheduledEvent, entry))
        return handle

    def schedule_at(self, time: float, callback: EventCallback, *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._clock._now:
            raise SimulationTimeError(
                f"cannot schedule at {time!r}, which is before now ({self._clock._now!r})"
            )
        return self._queue.push(time, callback, *args)

    def schedule_fire_and_forget(self, delay: float, callback: EventCallback, *args: Any) -> None:
        """Schedule ``callback(*args)`` ``delay`` seconds from now, uncancellably.

        Like :meth:`schedule` but returns no handle and allocates none: every
        fire-and-forget event shares one never-cancelled sentinel.  Used on
        the hottest scheduling path (datagram deliveries, which are scheduled
        by the million and never cancelled).
        """
        if delay < 0.0:
            raise SimulationTimeError(f"cannot schedule with negative delay {delay!r}")
        # EventQueue.push_unhandled inlined, like push in schedule().
        queue = self._queue
        entry = (self._clock._now + delay, queue._sequence, callback, args, _NEVER_CANCELLED)
        heapq.heappush(queue._heap, _new_event(ScheduledEvent, entry))
        queue._sequence += 1

    def schedule_fire_and_forget_at(
        self, time: float, callback: EventCallback, *args: Any
    ) -> None:
        """Absolute-time variant of :meth:`schedule_fire_and_forget`.

        Used by the datagram router seam: a delivery time computed on one
        shard must be re-scheduled *verbatim* on the receiving shard, without
        a round trip through a relative delay (which would not survive float
        arithmetic bit-exactly).
        """
        if time < self._clock._now:
            raise SimulationTimeError(
                f"cannot schedule at {time!r}, which is before now ({self._clock._now!r})"
            )
        self._queue.push_unhandled(time, callback, *args)

    def cancel(self, handle: Optional[EventHandle]) -> None:
        """Cancel a previously scheduled event.  ``None`` is accepted and ignored."""
        if handle is not None:
            handle.cancel()

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def add_observer(self, observer: Any) -> None:
        """Register a dispatch observer.

        ``observer.on_event_dispatch(time, callback, args)`` is called right
        before each event's callback executes (the clock already shows the
        event's time and ``events_processed`` already counts it).  See
        :class:`repro.validation.observers.SimulationObserver`.
        """
        if self._observers is None:
            self._observers = []
        self._observers.append(observer)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the single next event.  Returns ``False`` if none remained."""
        return run_loop(self, None, 1) == 1

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events in timestamp order.

        Parameters
        ----------
        until:
            Stop once the next event would be strictly after this time, and
            advance the clock to exactly ``until``.  ``None`` runs until the
            queue is empty.
        max_events:
            Optional safety valve: stop after executing this many events.

        Returns
        -------
        int
            The number of events executed by this call.

        The dispatch loop itself is :func:`repro.simulation.backend.run_loop`;
        this method owns the re-entrancy guard and the final clock advance.
        """
        if self._running:
            raise SimulationStateError("Simulator.run() called re-entrantly from an event")
        self._running = True
        try:
            executed = run_loop(self, until, max_events)
        finally:
            self._running = False
        if until is not None and self._clock._now < until:
            self._clock.advance_to(until)
        return executed

    def run_until_idle(self, max_events: Optional[int] = None) -> int:
        """Run until no events remain (or ``max_events`` is hit)."""
        return self.run(until=None, max_events=max_events)
