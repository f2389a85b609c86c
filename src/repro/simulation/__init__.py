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

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(globals(), {
    "repro.simulation.clock": ("SimulationClock",),
    "repro.simulation.errors": ("SimulationError", "SimulationTimeError"),
    "repro.simulation.event_queue": ("EventHandle", "EventQueue", "ScheduledEvent"),
    "repro.simulation.engine": ("Simulator",),
    "repro.simulation.rng": ("RngRegistry", "derive_seed"),
    "repro.simulation.timers": ("PeriodicTimer",),
})

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
