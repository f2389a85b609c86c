"""The simulation event loop: one heap, one clock value, one dispatch loop.

:class:`Simulator` owns the clock, the event heap and the RNG registry.  All
other components (transport, gossip nodes, churn and join callbacks, probes)
hold a reference to the simulator and interact with it through a few verbs:

* ``schedule(delay, callback, *args)`` — run ``callback`` after ``delay``
  simulated seconds;
* ``schedule_at(time, callback, *args)`` — run at an absolute instant;
* ``reserve(delay)``, later ``schedule_reserved(slot, callback, *args)`` —
  ``schedule`` split in two, so an event that never runs is never queued;
* ``schedule_fire_and_forget_at(time, callback, *args)`` — ``schedule_at``
  with no handle, for the shard and socket routers' deliveries;
* ``now`` — the current simulated time.

Running the simulation is ``run(until=...)`` or ``run_until_idle()``.  A
shard of a sharded run (:class:`repro.shard.session.ShardSession`) calls
``run`` once per conservative time window, with ``until`` just below the
window's bound, and reads :meth:`Simulator.peek_time` after it.

The heap
--------
Events run in ``(time, sequence)`` order: the sequence number is unique per
simulator, so two events scheduled for the same instant fire in the order
they were scheduled, whatever hash ordering or heap tie-breaking would do.
Heap entries are :class:`ScheduledEvent` named tuples built with one
``tuple.__new__`` call, so every comparison resolves within the ``(time,
sequence)`` prefix in C and the callback is never compared.

Cancellation is lazy: :meth:`EventHandle.cancel` marks the handle and counts
one dead entry, and the entry is discarded when it reaches the top of the
heap, so ``pending_events`` is O(1).  What gets cancelled is churn: a failing
node stops its queued gossip tick, its FEED_ME round and its one queued
retransmission, so the dead entries stay few and the heap never compacts
(docs/performance.md, "Tried and removed").  A popped handle is detached, so
a later ``cancel()`` of an event that already ran cannot touch the count.
Fire-and-forget events (datagram deliveries, scheduled by the million and
never cancelled) share one never-cancelled sentinel handle.

The verbs and the loop below build, push and pop entries inline — a method
call per event is 3–4 % of a session (docs/performance.md, "Frame diet") —
and so does the transport for its deliveries (:attr:`Simulator.inline_queue`).

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
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, List, NamedTuple, Optional, Tuple

from repro.simulation.errors import SimulationStateError, SimulationTimeError
from repro.simulation.rng import RngRegistry

EventCallback = Callable[..., None]


@dataclass(slots=True)
class EventHandle:
    """Handle returned when scheduling an event, used to cancel it."""

    time: float
    sequence: int
    _cancelled: bool = field(default=False, repr=False)
    _simulator: Optional["Simulator"] = field(default=None, repr=False)

    def cancel(self) -> None:
        """Mark the event as cancelled; the simulator will skip it."""
        if self._cancelled:
            return
        self._cancelled = True
        simulator = self._simulator
        if simulator is not None:
            self._simulator = None
            simulator._dead += 1

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called on this handle."""
        return self._cancelled


#: Shared handle for fire-and-forget events.  It is never exposed to callers
#: and can never be cancelled, so one instance serves every unhandled event.
_NEVER_CANCELLED = EventHandle(time=-1.0, sequence=-1)


class ScheduledEvent(NamedTuple):
    """Heap entry pairing a handle with its callback.

    A named tuple so heap comparisons are plain C tuple comparisons; the
    unique ``sequence`` guarantees ordering resolves before the
    non-comparable ``callback`` field is ever reached.
    """

    time: float
    sequence: int
    callback: EventCallback
    args: tuple = ()
    handle: EventHandle = None  # type: ignore[assignment]


#: ``_new_event(ScheduledEvent, (time, sequence, callback, args, handle))``
#: builds a heap entry in one C call; ``ScheduledEvent(...)`` itself is a
#: generated Python ``__new__`` wrapping this same call, one frame per event.
_new_event = tuple.__new__


class Simulator:
    """Discrete-event simulator: clock + event heap + named RNG streams.

    Parameters
    ----------
    seed:
        Root seed for the RNG registry.  Every random draw in an experiment
        descends from this seed, making runs reproducible.

    Simulated time starts at 0 and only moves forward.

    ``inline_queue`` is ``(heap, sequence, never_cancelled)``: the state
    every verb pushes onto, for the one caller that queues without a verb's
    frame (``Network.send_many``, one datagram delivery per accepted send).
    Its push is :meth:`schedule_fire_and_forget_at`'s, inline:
    ``heapq.heappush(heap, tuple.__new__(ScheduledEvent, (time,
    next(sequence), callback, args, never_cancelled)))`` with ``time >=
    now``, so it takes its key from the same counter as every verb.
    """

    def __init__(self, seed: int = 0) -> None:
        self._now = 0.0
        self._heap: List[ScheduledEvent] = []  # never rebound: run() holds it
        self._sequence = itertools.count()  # ``next()`` is a C call, not a frame
        self._dead = 0  # cancelled entries still in the heap
        self._rng = RngRegistry(seed)
        self._running = False
        self._events_processed = 0
        # ``None`` (not an empty list) when nobody watches: the dispatch hot
        # path then pays exactly one attribute load + identity test per event.
        self._observers: Optional[List[Any]] = None
        self.inline_queue = (self._heap, self._sequence, _NEVER_CANCELLED)

    # ------------------------------------------------------------------
    # Time and randomness
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

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
        return len(self._heap) - self._dead

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` if none is queued."""
        heap = self._heap
        while heap and heap[0].handle._cancelled:
            heapq.heappop(heap)
            self._dead -= 1
        return heap[0].time if heap else None

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
        time = self._now + delay
        sequence = next(self._sequence)
        handle = EventHandle(time=time, sequence=sequence, _simulator=self)
        entry = (time, sequence, callback, args, handle)
        heapq.heappush(self._heap, _new_event(ScheduledEvent, entry))
        return handle

    def reserve(self, delay: float) -> Tuple[float, int]:
        """Take the ``(time, sequence)`` key ``schedule(delay, ...)`` would take; queue nothing."""
        if delay < 0.0:
            raise SimulationTimeError(f"cannot reserve with negative delay {delay!r}")
        return (self._now + delay, next(self._sequence))

    def schedule_reserved(
        self, slot: Tuple[float, int], callback: EventCallback, *args: Any
    ) -> EventHandle:
        """Queue ``callback(*args)`` under a :meth:`reserve` key: it pops where it would have."""
        time, sequence = slot
        if time < self._now:
            raise SimulationTimeError(f"reserved slot at {time!r} is before now")
        handle = EventHandle(time=time, sequence=sequence, _simulator=self)
        entry = (time, sequence, callback, args, handle)
        heapq.heappush(self._heap, _new_event(ScheduledEvent, entry))
        return handle

    def schedule_at(self, time: float, callback: EventCallback, *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationTimeError(
                f"cannot schedule at {time!r}, which is before now ({self._now!r})"
            )
        time = float(time)
        sequence = next(self._sequence)
        handle = EventHandle(time=time, sequence=sequence, _simulator=self)
        entry = (time, sequence, callback, args, handle)
        heapq.heappush(self._heap, _new_event(ScheduledEvent, entry))
        return handle

    def schedule_fire_and_forget_at(
        self, time: float, callback: EventCallback, *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` at absolute ``time``, uncancellably.

        Like :meth:`schedule_at` but returns no handle and allocates none:
        every fire-and-forget event shares one never-cancelled sentinel.
        Used by the datagram router seam: a delivery time computed on one
        shard must be re-scheduled *verbatim* on the receiving shard, without
        a round trip through a relative delay (which would not survive float
        arithmetic bit-exactly).
        """
        if time < self._now:
            raise SimulationTimeError(
                f"cannot schedule at {time!r}, which is before now ({self._now!r})"
            )
        entry = (float(time), next(self._sequence), callback, args, _NEVER_CANCELLED)
        heapq.heappush(self._heap, _new_event(ScheduledEvent, entry))

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
        return self.run(max_events=1) == 1

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events in ``(time, sequence)`` order.

        Parameters
        ----------
        until:
            Stop once the next event would be strictly after this time, and
            advance the clock to exactly ``until``.  ``None`` runs until the
            heap is empty.
        max_events:
            Optional safety valve: stop after executing this many events.
            A run it stops leaves the clock at the last event run, since an
            event due by ``until`` is still queued.

        Returns
        -------
        int
            The number of events executed by this call.

        This is the only place an event is popped and its callback called:
        discard cancelled heads, stop at the horizon or the event budget,
        pop, advance the clock, count, show the event to the observers, call.
        """
        if self._running:
            raise SimulationStateError("Simulator.run() called re-entrantly from an event")
        self._running = True
        heap = self._heap
        heappop = heapq.heappop
        executed = 0
        try:
            while True:
                while heap and heap[0].handle._cancelled:
                    heappop(heap)
                    self._dead -= 1
                if not heap:
                    break
                time = heap[0].time
                if until is not None and time > until:
                    break
                if max_events is not None and executed == max_events:
                    return executed  # an event is due by ``until``: the clock stays
                event = heappop(heap)
                event.handle._simulator = None
                if time < self._now:
                    raise SimulationTimeError(
                        f"cannot move clock backwards from {self._now!r} to {time!r}"
                    )
                self._now = time
                self._events_processed += 1
                executed += 1
                if self._observers is not None:
                    for observer in self._observers:
                        observer.on_event_dispatch(time, event.callback, event.args)
                event.callback(*event.args)
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = float(until)
        return executed

    def run_until_idle(self, max_events: Optional[int] = None) -> int:
        """Run until no events remain (or ``max_events`` is hit)."""
        return self.run(until=None, max_events=max_events)
