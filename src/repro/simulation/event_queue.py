"""Cancellable priority queue of timestamped events.

The queue orders events by ``(time, sequence_number)`` so that two events
scheduled for the same instant fire in the order they were scheduled.  This
determinism matters: gossip experiments are compared across parameter sweeps
and must not depend on hash ordering or heap tie-breaking accidents.

Cancellation is *lazy*: cancelling an event marks its handle and the event is
skipped when it reaches the top of the heap, which makes cancellation O(1).
What gets cancelled is churn, not served requests: a failing node stops its
queued gossip tick, its FEED_ME timer and its one queued retransmission
(:meth:`~repro.core.state.NodeState.cancel_all_pending`); the rest of a
node's retransmissions only hold keys (``Simulator.reserve``).

Cancelled handles report back to a **live counter**, so ``len()`` is O(1).
The dead entries stay until their timestamps surface: a failed node leaves
at most three, each due within one period of its timer, so the queue does
not compact (docs/performance.md, "Tried and removed").

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
rely on the invariants spelled out there, as do ``Simulator.reserve`` /
``schedule_reserved``, which split :meth:`EventQueue.push` in two.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Optional

from repro.simulation.errors import SimulationTimeError

EventCallback = Callable[..., None]


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
            queue._dead += 1

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
