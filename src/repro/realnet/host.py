"""The wall-clock host: asyncio timers behind the simulator's interface.

:class:`AsyncioHost` implements the :class:`~repro.core.host.Host` surface
— ``now`` / ``rng`` / ``schedule`` / ``schedule_at`` / ``reserve`` /
``schedule_reserved`` / ``cancel`` plus the observer and accounting extras
the telemetry layer reads — on top of a real asyncio event loop, so
:class:`~repro.core.node.GossipNode`, the timers, the stream emitter and
the churn and join callbacks run on it *unchanged*.

Time model
----------
The host exposes a **virtual time axis** measured in the same seconds the
simulator uses.  One virtual second costs ``time_scale`` wall seconds
(default 1.0 = real time); ``now`` maps the loop clock back onto the
virtual axis, and every ``schedule(delay)`` converts the virtual delay to a
wall delay.  Delivery logs and traces therefore record virtual times that
are directly comparable with a simulated run of the same scenario — the
sim-vs-real comparison (:mod:`repro.realnet.compare`) depends on exactly
this property.

Lifecycle
---------
Sessions are *built* before the event loop exists: node start-up arms the
FEED_ME timers and the emitter schedules every publication.  The host
buffers those pre-start schedules and converts them into ``loop.call_at``
timers the moment :meth:`run` starts the loop (virtual ``t = 0`` is defined
as that instant).  ``run(until=...)`` then waits until the virtual horizon
is reached, cancels whatever is still pending, and awaits the registered
shutdown hooks (closing UDP transports).

A callback that raises — a timer or a datagram callback — ends the run:
the host replaces asyncio's log-and-continue exception handler, keeps the
first exception, stops at once, runs the shutdown hooks so every socket
closes, and re-raises that exception from :meth:`run`.

Handles
-------
``schedule`` returns a :class:`WallClockHandle` rather than the raw
``asyncio.TimerHandle``: callers of the shared timer helpers read
``handle.cancelled`` as an *attribute* (the simulator's
``EventHandle.cancelled`` is a property) while asyncio's ``cancelled()`` is
a method — the wrapper bridges that, and also survives the buffered
pre-start phase where no loop handle exists yet.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, List, Optional, Set

from repro.simulation.rng import RngRegistry

from repro.realnet.errors import RealNetStateError

EventCallback = Callable[..., None]
LifecycleHook = Callable[[], Awaitable[None]]


class WallClockHandle:
    """A cancellable reference to one callback scheduled on the host.

    Satisfies the :class:`~repro.core.host.ScheduledHandle` contract:
    ``cancel()`` is idempotent and ``cancelled`` is a property.
    """

    __slots__ = ("virtual_time", "callback", "args", "_host", "_timer", "_cancelled", "_fired")

    def __init__(
        self, host: "AsyncioHost", virtual_time: float, callback: EventCallback, args: tuple
    ) -> None:
        self.virtual_time = virtual_time
        self.callback = callback
        self.args = args
        self._host = host
        self._timer: Optional[asyncio.TimerHandle] = None
        self._cancelled = False
        self._fired = False

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._cancelled

    def cancel(self) -> None:
        """Cancel the scheduled callback (idempotent, also pre-start)."""
        if self._cancelled or self._fired:
            return
        self._cancelled = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._host._forget(self)


class AsyncioHost:
    """Wall-clock implementation of the :class:`~repro.core.host.Host` surface.

    Parameters
    ----------
    seed:
        Root seed of the RNG registry — the same named-stream derivation as
        the simulator's, so per-node draws are reproducible across backends.
    time_scale:
        Wall seconds per virtual second.  ``1.0`` runs in real time;
        ``0.5`` runs the same virtual schedule twice as fast.  Scales well
        below ~0.1 squeeze the 200 ms gossip period under the OS timer
        resolution and distort the physics — keep smoke runs at 0.25+.
    """

    def __init__(self, seed: int = 0, time_scale: float = 1.0) -> None:
        if time_scale <= 0.0:
            raise ValueError(f"time_scale must be positive, got {time_scale!r}")
        self._rng = RngRegistry(seed)
        self._time_scale = float(time_scale)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._t0 = 0.0
        self._started = False
        self._stopped = False
        self._final_now = 0.0
        # Monotonic floor on the virtual clock: asyncio may fire a timer up
        # to one clock resolution *early*, so a raw wall reading inside a
        # callback could land below the callback's scheduled time and break
        # time monotonicity (which validation observers and the trace
        # toolchain check).  Dispatching an event advances the floor to its
        # scheduled time, exactly like the simulator's clock.advance_to.
        self._clock_floor = 0.0
        self._events_processed = 0
        self._pending: Set[WallClockHandle] = set()
        self._observers: Optional[List[Any]] = None
        self._startup_hooks: List[LifecycleHook] = []
        self._shutdown_hooks: List[LifecycleHook] = []
        self._horizon: Optional[asyncio.Future] = None
        self._failure: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # Host surface: time and randomness
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds (0.0 before the loop starts)."""
        if not self._started:
            return 0.0
        if self._stopped:
            return self._final_now
        assert self._loop is not None
        wall = (self._loop.time() - self._t0) / self._time_scale
        floor = self._clock_floor
        return wall if wall > floor else floor

    @property
    def rng(self) -> RngRegistry:
        """Registry of named deterministic random streams."""
        return self._rng

    @property
    def time_scale(self) -> float:
        """Wall seconds per virtual second."""
        return self._time_scale

    @property
    def events_processed(self) -> int:
        """Total number of scheduled callbacks executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of scheduled callbacks that have not yet fired."""
        return len(self._pending)

    @property
    def backend_name(self) -> str:
        """Identifies this host in trace headers and session results."""
        return "realnet-asyncio"

    # ------------------------------------------------------------------
    # Host surface: scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: EventCallback, *args: Any) -> WallClockHandle:
        """Run ``callback(*args)`` ``delay`` virtual seconds from :attr:`now`."""
        if delay < 0.0:
            raise ValueError(f"cannot schedule with negative delay {delay!r}")
        return self._schedule_virtual(self.now + delay, callback, args)

    def schedule_at(self, time: float, callback: EventCallback, *args: Any) -> WallClockHandle:
        """Run ``callback(*args)`` at absolute virtual ``time``.

        Unlike the simulator — where time only advances between events — a
        wall clock may already have passed ``time`` by a few microseconds
        when the caller computed it; such callbacks fire as soon as
        possible instead of raising.
        """
        return self._schedule_virtual(max(time, self.now), callback, args)

    def reserve(self, delay: float) -> float:
        """Return the virtual time ``schedule(delay, ...)`` would run at (its only order)."""
        if delay < 0.0:
            raise ValueError(f"cannot reserve with negative delay {delay!r}")
        return self.now + delay

    def schedule_reserved(
        self, slot: float, callback: EventCallback, *args: Any
    ) -> WallClockHandle:
        """Run ``callback(*args)`` at the virtual time :meth:`reserve` returned."""
        return self.schedule_at(slot, callback, *args)

    def schedule_fire_and_forget_at(self, time: float, callback: EventCallback, *args: Any) -> None:
        """Like :meth:`schedule_at` but discards the handle."""
        self.schedule_at(time, callback, *args)

    def cancel(self, handle: Optional[WallClockHandle]) -> None:
        """Cancel a previously scheduled callback; ``None`` is ignored."""
        if handle is not None:
            handle.cancel()

    def _schedule_virtual(
        self, virtual_time: float, callback: EventCallback, args: tuple
    ) -> WallClockHandle:
        handle = WallClockHandle(self, virtual_time, callback, args)
        if self._stopped:
            # The horizon has passed: accept and immediately retire the
            # handle so teardown-time protocol code cannot resurrect timers.
            handle._cancelled = True
            return handle
        self._pending.add(handle)
        if self._started:
            self._activate(handle)
        return handle

    def _activate(self, handle: WallClockHandle) -> None:
        assert self._loop is not None
        wall_deadline = self._t0 + handle.virtual_time * self._time_scale
        handle._timer = self._loop.call_at(wall_deadline, self._dispatch, handle)

    def _forget(self, handle: WallClockHandle) -> None:
        self._pending.discard(handle)

    def _dispatch(self, handle: WallClockHandle) -> None:
        if handle._cancelled or self._stopped:
            return
        handle._fired = True
        handle._timer = None
        self._pending.discard(handle)
        self._events_processed += 1
        if handle.virtual_time > self._clock_floor:
            self._clock_floor = handle.virtual_time
        if self._observers is not None:
            # Stamp with ``now`` *after* advancing the floor: every stamp in
            # the system (dispatch edges here, network edges via host.now) is
            # then max(wall, floor) at stamping time, which is monotone even
            # when asyncio dispatches racing timers out of scheduled order or
            # a datagram arrives ahead of a lagging timer.
            stamp = self.now
            for observer in self._observers:
                observer.on_event_dispatch(stamp, handle.callback, handle.args)
        handle.callback(*handle.args)

    # ------------------------------------------------------------------
    # Observation (same edge as the simulator's dispatch loop)
    # ------------------------------------------------------------------
    def add_observer(self, observer: Any) -> None:
        """Register a dispatch observer (``on_event_dispatch(time, cb, args)``).

        The ``time`` passed to observers is :attr:`now` read after advancing
        the monotonic clock floor to the callback's scheduled virtual time —
        stamps never regress even when asyncio dispatches racing timers a
        clock resolution apart out of scheduled order.
        """
        if self._observers is None:
            self._observers = []
        self._observers.append(observer)

    # ------------------------------------------------------------------
    # Lifecycle hooks (UDP endpoints open/close inside the loop)
    # ------------------------------------------------------------------
    def add_startup_hook(self, hook: LifecycleHook) -> None:
        """Await ``hook()`` inside the loop before virtual time starts."""
        self._startup_hooks.append(hook)

    def add_shutdown_hook(self, hook: LifecycleHook) -> None:
        """Await ``hook()`` inside the loop after the horizon is reached."""
        self._shutdown_hooks.append(hook)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Drive the event loop until virtual time ``until``.

        Mirrors :meth:`repro.simulation.engine.Simulator.run` closely
        enough that :meth:`repro.core.session.StreamingSession.run` calls
        it without knowing which backend it is on.  ``until`` is mandatory:
        a wall-clock host has no "queue drained" notion to substitute for a
        horizon.  Returns the number of callbacks executed; re-raises the
        first exception a callback raised, after the shutdown hooks ran.

        Parameters
        ----------
        until:
            Virtual-time horizon at which the run stops.
        max_events:
            Accepted for interface parity; the wall-clock host stops on the
            horizon only.
        """
        if until is None:
            raise RealNetStateError("AsyncioHost.run() requires an explicit until= horizon")
        if self._started:
            raise RealNetStateError("AsyncioHost.run() called twice")
        before = self._events_processed
        loop = asyncio.new_event_loop()
        try:
            loop.run_until_complete(self._main(loop, until))
        finally:
            self._loop = None
            loop.close()
        if self._failure is not None:
            raise self._failure
        return self._events_processed - before

    async def _main(self, loop: asyncio.AbstractEventLoop, until: float) -> None:
        self._loop = loop
        self._horizon = loop.create_future()
        loop.set_exception_handler(self._on_callback_error)
        for hook in self._startup_hooks:
            await hook()
        self._t0 = loop.time()
        self._started = True
        for handle in list(self._pending):
            self._activate(handle)
        deadline = self._t0 + until * self._time_scale
        timer = loop.call_at(deadline, self._end_run)
        await self._horizon
        timer.cancel()
        self._stopped = True
        self._final_now = max(until, (loop.time() - self._t0) / self._time_scale)
        for handle in list(self._pending):
            handle.cancel()
        for hook in self._shutdown_hooks:
            await hook()

    def _end_run(self) -> None:
        if not self._horizon.done():
            self._horizon.set_result(None)

    def _on_callback_error(self, loop: asyncio.AbstractEventLoop, context: dict) -> None:
        """End the run on the first callback exception (the loop's exception handler)."""
        error = context.get("exception")
        if error is None:
            loop.default_exception_handler(context)
            return
        if self._failure is None:
            self._failure = error
        self._end_run()


__all__ = ["AsyncioHost", "WallClockHandle"]
