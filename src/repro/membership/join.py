"""Join schedules: nodes that enter the system mid-stream.

The paper's deployment starts all 230 nodes before the stream; real live
streaming systems instead see *flash crowds* — a burst of viewers joining
once the stream is already running.  A :class:`JoinSchedule` decides which
nodes are late joiners and when they come up; applying the join (adding the
node to the membership directory and starting its timers) is done by a
callback supplied by the session, mirroring how churn schedules stay
independent of the protocol wiring.

A late joiner only receives packets proposed after its join time: gossip is
a live dissemination protocol, not a catch-up protocol, so the stream-lag
metrics naturally report the joiner's truncated view.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, List, Sequence

from repro.network.message import NodeId

JoinCallback = Callable[[List[NodeId]], None]


@dataclass(frozen=True)
class JoinEvent:
    """A single join step: at ``time``, all of ``joiners`` come online."""

    time: float
    joiners: tuple[NodeId, ...]

    def __post_init__(self) -> None:
        if self.time < 0.0:
            raise ValueError(f"join time must be >= 0, got {self.time!r}")


class JoinSchedule(ABC):
    """Base class: partitions nodes into initial members and late joiners."""

    @abstractmethod
    def events(self, candidates: Sequence[NodeId]) -> List[JoinEvent]:
        """Compute the join events given the joinable (non-source) nodes."""

    @abstractmethod
    def describe(self) -> str:
        """Human-readable one-line description for experiment reports."""


class FlashCrowdJoin(JoinSchedule):
    """A fraction of the nodes joins in one burst at a given instant.

    Parameters
    ----------
    time:
        Simulated time of the burst, typically mid-stream.
    fraction:
        Fraction of the candidate nodes that are late joiners, in [0, 1].
        The *last* ids join late, so the initial swarm is a contiguous
        prefix — deterministic for a given configuration.
    """

    def __init__(self, time: float, fraction: float) -> None:
        if time < 0.0:
            raise ValueError(f"time must be >= 0, got {time!r}")
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction!r}")
        self.time = float(time)
        self.fraction = float(fraction)

    def events(self, candidates: Sequence[NodeId]) -> List[JoinEvent]:
        count = int(round(len(candidates) * self.fraction))
        if count == 0:
            return []
        joiners = tuple(sorted(candidates)[-count:])
        return [JoinEvent(time=self.time, joiners=joiners)]

    def describe(self) -> str:
        return f"flash crowd: {self.fraction:.0%} of nodes join at t={self.time:.0f}s"


class JoinInjector:
    """Schedules a join plan on a simulator and applies it via a callback."""

    def __init__(self, simulator, schedule: JoinSchedule, on_join: JoinCallback) -> None:
        self._simulator = simulator
        self._schedule = schedule
        self._on_join = on_join
        self._planned: List[JoinEvent] = []

    def arm_events(self, events: Sequence[JoinEvent]) -> List[JoinEvent]:
        """Schedule an already-computed join plan.

        Deliberately the *only* arming entry point: the caller evaluates
        ``schedule.events()`` exactly once and derives both the initial
        directory membership and this plan from it — an ``arm(candidates)``
        convenience that re-evaluated the schedule would let a stateful or
        randomized schedule produce two different partitions.
        """
        self._planned = list(events)
        for event in self._planned:
            self._simulator.schedule_at(event.time, self._apply, event)
        return list(self._planned)

    def _apply(self, event: JoinEvent) -> None:
        self._on_join(list(event.joiners))
