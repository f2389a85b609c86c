"""Discrete-event simulation kernel.

This package is the lowest substrate of the reproduction.  Everything in the
system — network transmission, gossip and FEED_ME rounds, churn events,
stream emission — is expressed as callbacks scheduled on a single
:class:`Simulator` instance.

The kernel is deliberately small and dependency-free:

* :class:`Simulator` — the clock, the event heap and the one dispatch loop:
  ``schedule`` / ``schedule_at`` / ``reserve`` / ``run`` /
  ``run_until_idle``; a sharded run drives ``run`` one conservative window
  at a time.
* :class:`EventHandle` / :class:`ScheduledEvent` — a cancellable event and
  its heap entry, ordered by ``(time, sequence)`` with deterministic FIFO
  tie-breaking.
* :class:`RngRegistry` — named, deterministically derived random streams so
  that every experiment is reproducible from a single seed.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(globals(), {
    "repro.simulation.errors": ("SimulationError", "SimulationTimeError"),
    "repro.simulation.engine": ("EventHandle", "ScheduledEvent", "Simulator"),
    "repro.simulation.rng": ("RngRegistry", "derive_seed"),
})

__all__ = [
    "EventHandle",
    "RngRegistry",
    "ScheduledEvent",
    "SimulationError",
    "SimulationTimeError",
    "Simulator",
    "derive_seed",
]
