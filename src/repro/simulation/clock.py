"""Simulated time.

Simulated time is a plain ``float`` number of seconds since the start of the
experiment.  The clock only moves forward; it is advanced exclusively by the
:class:`~repro.simulation.engine.Simulator` as it pops events off the queue.
"""

from __future__ import annotations

from repro.simulation.errors import SimulationTimeError


class SimulationClock:
    """A strictly monotonic simulated clock, starting at 0."""

    __slots__ = ("_now",)

    def __init__(self) -> None:
        self._now = 0.0

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
