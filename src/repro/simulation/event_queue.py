"""Cancellable priority queue of timestamped events.

The queue orders events by ``(time, sequence_number)`` so that two events
scheduled for the same instant fire in the order they were scheduled.  This
determinism matters: gossip experiments are compared across parameter sweeps
and must not depend on hash ordering or heap tie-breaking accidents.

Cancellation is *lazy*: cancelling an event marks its handle and the event is
skipped when it reaches the top of the heap, which makes cancellation O(1).
What gets cancelled is churn, not served requests: a failing node stops its
gossip timers and disarms its pending retransmissions
(:meth:`~repro.core.state.NodeState.cancel_all_pending`).  The protocol does
**not** cancel a retransmission timer when the packets it guards arrive: every
armed timer of a live node fires and re-requests what is still missing,
usually nothing (at the paper's operating point 23,333 of 23,333 fire, 15.5 %
of all events, and 652 re-request anything; docs/performance.md records
cancel-on-serve as a measured follow-up).

A mass failure leaves its dead entries buried in the heap until their
timestamps surface, each taxing every push and pop with extra sift work, so
the queue keeps a **live counter** — cancelled handles report back, making
``len()`` O(1) — and **compacts** the heap (filters the dead entries out and
re-heapifies) once they outnumber the live ones; without churn neither ever
runs.  Compaction never changes pop order: the heap order is the *total*
order ``(time, sequence)``, so rebuilding from any subset pops identically.

Heap entries are :class:`ScheduledEvent` named tuples.  The sequence number
is unique per queue, so tuple comparison always resolves within the
``(time, sequence)`` prefix — the callback is never compared — and the
millions of comparisons a long session performs run entirely in C instead
of a Python-level ``__lt__``.

:meth:`EventQueue.push_unhandled` schedules fire-and-forget events (datagram
deliveries are never cancelled) without allocating a cancellation handle.
The dispatch loop (:func:`repro.simulation.backend.run_loop`) inlines
:meth:`EventQueue.pop`, and the simulator's relative-delay scheduling verbs
inline :meth:`EventQueue.push` / :meth:`EventQueue.push_unhandled`; both
rely on the invariants spelled out there.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Optional

from repro.simulation.errors import SimulationTimeError

EventCallback = Callable[..., None]

COMPACTION_MIN_DEAD = 64
"""Never compact below this many dead entries (tiny heaps aren't worth it)."""


@dataclass(slots=True)
class EventHandle:
    """Handle returned when scheduling an event, used to cancel it."""

    time: float
    sequence: int
    _cancelled: bool = field(default=False, repr=False)
    _queue: Optional["EventQueue"] = field(default=None, repr=False)

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped by the queue."""
        if self._cancelled:
            return
        self._cancelled = True
        queue = self._queue
        if queue is not None:
            self._queue = None
            queue._note_cancelled()

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called on this handle."""
        return self._cancelled


#: Shared handle for fire-and-forget events.  It is never exposed to callers
#: and can never be cancelled, so one instance serves every unhandled event.
_NEVER_CANCELLED = EventHandle(time=-1.0, sequence=-1)


class ScheduledEvent(NamedTuple):
    """Internal heap entry pairing a handle with its callback.

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


class EventQueue:
    """A deterministic, cancellable min-heap of :class:`ScheduledEvent`."""

    __slots__ = ("_heap", "_sequence", "_dead")

    def __init__(self) -> None:
        self._heap: list[ScheduledEvent] = []
        self._sequence = 0
        self._dead = 0  # cancelled entries still buried in the heap

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events still queued.  O(1)."""
        return len(self._heap) - self._dead

    @property
    def dead_entries(self) -> int:
        """Cancelled entries currently buried in the heap (diagnostics)."""
        return self._dead

    def push(self, time: float, callback: EventCallback, *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at simulated ``time``.

        Returns a handle whose :meth:`EventHandle.cancel` prevents execution.
        """
        if time < 0.0:
            raise SimulationTimeError(f"cannot schedule event at negative time {time!r}")
        time = float(time)
        handle = EventHandle(time=time, sequence=self._sequence, _queue=self)
        entry = (time, self._sequence, callback, args, handle)
        heapq.heappush(self._heap, _new_event(ScheduledEvent, entry))
        self._sequence += 1
        return handle

    def push_unhandled(self, time: float, callback: EventCallback, *args: Any) -> None:
        """Schedule a fire-and-forget event that can never be cancelled.

        Identical pop order to :meth:`push` (same sequence counter), but no
        per-event :class:`EventHandle` is allocated: every entry shares one
        never-cancelled sentinel.  Used for the transport's datagram
        deliveries, which are scheduled by the million and never cancelled.
        """
        if time < 0.0:
            raise SimulationTimeError(f"cannot schedule event at negative time {time!r}")
        entry = (float(time), self._sequence, callback, args, _NEVER_CANCELLED)
        heapq.heappush(self._heap, _new_event(ScheduledEvent, entry))
        self._sequence += 1

    def peek_time(self) -> float | None:
        """Timestamp of the next live event, or ``None`` if the queue is empty."""
        self._discard_cancelled()
        if not self._heap:
            return None
        return self._heap[0].time

    def pop(self) -> ScheduledEvent | None:
        """Remove and return the next live event, or ``None`` if empty."""
        self._discard_cancelled()
        if not self._heap:
            return None
        event = heapq.heappop(self._heap)
        # Detach the handle: a later cancel() of an already-popped (possibly
        # already-executed) event must not corrupt the dead-entry counter.
        event.handle._queue = None
        return event

    def _discard_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0].handle.cancelled:
            heapq.heappop(heap)
            self._dead -= 1

    def _note_cancelled(self) -> None:
        """A live handle was cancelled; compact once the dead dominate."""
        self._dead += 1
        if self._dead >= COMPACTION_MIN_DEAD and self._dead * 2 > len(self._heap):
            self.compact()

    def compact(self) -> None:
        """Drop every cancelled entry and re-heapify the survivors.

        Safe at any point: heap order is the total order ``(time,
        sequence)``, so the rebuilt heap pops in exactly the same order the
        lazy queue would have.
        """
        if self._dead == 0:
            return
        # In-place rebuild: dispatch loops hold a direct reference to the
        # heap list across callbacks (and a callback can trigger compaction
        # via cancel), so the list object's identity must never change.
        heap = self._heap
        heap[:] = [event for event in heap if not event.handle.cancelled]
        heapq.heapify(heap)
        self._dead = 0
