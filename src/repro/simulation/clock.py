"""Simulated time.

Simulated time is a plain ``float`` number of seconds since the start of the
experiment.  The clock only moves forward; it is advanced exclusively by the
:class:`~repro.simulation.engine.Simulator` as it pops events off the queue.
"""

from __future__ import annotations

from repro.simulation.errors import SimulationTimeError


class SimulationClock:
    """A strictly monotonic simulated clock.

    Parameters
    ----------
    start_time:
        Initial value of the clock, in simulated seconds.  Defaults to 0.
    """

    __slots__ = ("_now",)

    def __init__(self, start_time: float = 0.0) -> None:
        if start_time < 0.0:
            raise SimulationTimeError(
                f"clock cannot start at negative time {start_time!r}"
            )
        self._now = float(start_time)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance_to(self, time: float) -> None:
        """Move the clock forward to ``time``.

        Raises
        ------
        SimulationTimeError
            If ``time`` is earlier than the current clock value.
        """
        if time < self._now:
            raise SimulationTimeError(
                f"cannot move clock backwards from {self._now!r} to {time!r}"
            )
        self._now = float(time)
