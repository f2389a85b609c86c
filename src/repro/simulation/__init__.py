"""Discrete-event simulation kernel.

This package is the lowest substrate of the reproduction.  Everything in the
system — network transmission, gossip timers, churn events, stream emission —
is expressed as callbacks scheduled on a single :class:`Simulator` instance.

The kernel is deliberately small and dependency-free:

* :class:`SimulationClock` — a monotonically advancing simulated clock.
* :class:`EventQueue` / :class:`EventHandle` — a cancellable priority queue
  of timestamped callbacks with deterministic FIFO tie-breaking.
* :class:`Simulator` — the event loop: ``schedule`` / ``schedule_at`` /
  ``run`` / ``run_until_idle``.
* :class:`PeriodicTimer` — the fixed-period tick behind every node's gossip
  and FEED_ME rounds.
* :class:`RngRegistry` — named, deterministically derived random streams so
  that every experiment is reproducible from a single seed.

There is one dispatch loop, :func:`repro.simulation.backend.run_loop`; a
sharded run drives it through :meth:`Simulator.run`, one conservative
window at a time.
"""

from repro.simulation.clock import SimulationClock
from repro.simulation.errors import SimulationError, SimulationTimeError
from repro.simulation.event_queue import EventHandle, EventQueue, ScheduledEvent
from repro.simulation.engine import Simulator
from repro.simulation.rng import RngRegistry, derive_seed
from repro.simulation.timers import PeriodicTimer

__all__ = [
    "EventHandle",
    "EventQueue",
    "PeriodicTimer",
    "RngRegistry",
    "ScheduledEvent",
    "SimulationClock",
    "SimulationError",
    "SimulationTimeError",
    "Simulator",
    "derive_seed",
]
