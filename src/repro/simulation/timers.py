"""Timer helpers built on top of the simulator's event queue.

The gossip protocol uses two kinds of timers:

* the **gossip timer** — a fixed-period tick on every node that triggers a
  gossip round (``PeriodicTimer``);
* **retransmission timers** — one-shot timers armed when a node requests
  packets (``Timer``).  They are not cancelled when the packets arrive:
  each fires once and re-requests whatever is still missing (usually
  nothing); only a node failure cancels them.

Both are written against the :class:`~repro.core.host.Host` surface
(``schedule`` returning a cancellable handle), so the same timer objects
drive nodes on the discrete-event simulator and on the real-network asyncio
backend (:mod:`repro.realnet`) unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # imported for type hints only: core sits above this layer
    from repro.core.host import Host, ScheduledHandle


class Timer:
    """A one-shot, cancellable, re-armable timer.

    The callback receives no arguments; bind state with a closure or
    ``functools.partial``.
    """

    __slots__ = ("_simulator", "_callback", "_handle")

    def __init__(self, simulator: "Host", callback: Callable[[], None]) -> None:
        self._simulator = simulator
        self._callback = callback
        self._handle: Optional["ScheduledHandle"] = None

    def arm(self, delay: float) -> None:
        """(Re-)schedule the timer ``delay`` seconds from now.

        Re-arming an already armed timer cancels the previous schedule.
        """
        self.cancel()
        self._handle = self._simulator.schedule(delay, self._fire)

    def cancel(self) -> None:
        """Cancel the timer if it is armed; no-op otherwise."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        self._callback()


class PeriodicTimer:
    """A fixed-period timer that re-arms itself after every fire.

    Parameters
    ----------
    simulator:
        The simulator to schedule on.
    period:
        Seconds between consecutive fires (must be > 0).
    callback:
        Zero-argument callable invoked at every fire.
    start_delay:
        Delay before the first fire.  Defaults to one full period, matching
        the behaviour of a timer started "now" that first ticks after its
        period elapses.  Pass 0.0 to fire immediately.
    """

    __slots__ = (
        "_simulator",
        "_period",
        "_callback",
        "_start_delay",
        "_handle",
        "_running",
    )

    def __init__(
        self,
        simulator: "Host",
        period: float,
        callback: Callable[[], None],
        start_delay: Optional[float] = None,
    ) -> None:
        if period <= 0.0:
            raise ValueError(f"period must be positive, got {period!r}")
        self._simulator = simulator
        self._period = float(period)
        self._callback = callback
        self._start_delay = period if start_delay is None else float(start_delay)
        self._handle: Optional["ScheduledHandle"] = None
        self._running = False

    def start(self) -> None:
        """Start the timer.  Starting an already-running timer is a no-op."""
        if self._running:
            return
        self._running = True
        self._handle = self._simulator.schedule(self._start_delay, self._fire)

    def stop(self) -> None:
        """Stop the timer; it can be started again later."""
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        if not self._running:
            return
        self._callback()
        if self._running:
            self._handle = self._simulator.schedule(self._period, self._fire)
