"""The periodic timer behind every node's gossip and FEED_ME rounds.

It is written against the :class:`~repro.core.host.Host` surface
(``schedule`` returning a cancellable handle), so it drives nodes on the
simulator and on the real-network asyncio backend (:mod:`repro.realnet`)
unchanged.  Retransmissions need no timer object (:meth:`Host.reserve
<repro.core.host.Host.reserve>`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # imported for type hints only: core sits above this layer
    from repro.core.host import Host, ScheduledHandle


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
