"""Churn schedules.

Section 4.3 of the paper evaluates a *catastrophic* churn scenario: at a
given instant, a randomly chosen percentage of the nodes (10 % to 80 %) fail
simultaneously.  :class:`CatastrophicChurn` reproduces it.

A churn schedule only *decides* who fails and when; applying the failure
(stopping the node, telling the network and the directory) is done by the
callback supplied by the experiment runner, so the schedule stays independent
of the protocol wiring.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence

from repro.network.message import NodeId

FailCallback = Callable[[List[NodeId]], None]


@dataclass(frozen=True)
class ChurnEvent:
    """A single churn step: at ``time``, all of ``victims`` fail together."""

    time: float
    victims: tuple[NodeId, ...]

    def __post_init__(self) -> None:
        if self.time < 0.0:
            raise ValueError(f"churn time must be >= 0, got {self.time!r}")


class ChurnSchedule(ABC):
    """Base class: produces the list of churn events for one experiment."""

    @abstractmethod
    def events(self, candidates: Sequence[NodeId], rng: random.Random) -> List[ChurnEvent]:
        """Compute the churn events given the killable nodes."""

    @abstractmethod
    def describe(self) -> str:
        """Human-readable one-line description for experiment reports."""


class CatastrophicChurn(ChurnSchedule):
    """The paper's scenario: a fraction of nodes fail simultaneously.

    Parameters
    ----------
    time:
        Simulated time of the failure, typically mid-stream.
    fraction:
        Fraction of the candidate nodes to kill, in [0, 1].
    """

    def __init__(self, time: float, fraction: float) -> None:
        if time < 0.0:
            raise ValueError(f"time must be >= 0, got {time!r}")
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction!r}")
        self.time = float(time)
        self.fraction = float(fraction)

    def events(self, candidates: Sequence[NodeId], rng: random.Random) -> List[ChurnEvent]:
        count = int(round(len(candidates) * self.fraction))
        if count == 0:
            return []
        victims = tuple(sorted(rng.sample(list(candidates), count)))
        return [ChurnEvent(time=self.time, victims=victims)]

    def describe(self) -> str:
        return f"catastrophic churn: {self.fraction:.0%} of nodes at t={self.time:.0f}s"


class ChurnInjector:
    """Schedules a churn plan on a simulator and applies it via a callback."""

    def __init__(self, simulator, schedule: ChurnSchedule, on_fail: FailCallback) -> None:
        self._simulator = simulator
        self._schedule = schedule
        self._on_fail = on_fail
        self._planned: List[ChurnEvent] = []
        self._applied_victims: List[NodeId] = []

    @property
    def planned_events(self) -> List[ChurnEvent]:
        """The churn events computed by :meth:`arm`."""
        return list(self._planned)

    @property
    def failed_nodes(self) -> List[NodeId]:
        """Victims whose failure has already been applied."""
        return list(self._applied_victims)

    def arm(self, candidates: Iterable[NodeId], rng: random.Random) -> List[ChurnEvent]:
        """Compute the events and schedule them on the simulator."""
        self._planned = self._schedule.events(list(candidates), rng)
        for event in self._planned:
            self._simulator.schedule_at(event.time, self._apply, event)
        return list(self._planned)

    def _apply(self, event: ChurnEvent) -> None:
        victims = list(event.victims)
        self._applied_victims.extend(victims)
        self._on_fail(victims)
