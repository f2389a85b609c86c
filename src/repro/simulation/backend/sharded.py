"""Windowed conservative dispatch — the shard-local event loop.

Classic conservative PDES (Chandy–Misra lookahead): a shard may safely run
every event with ``time < bound`` as long as no other shard can inject an
event below ``bound``.  The transport guarantees exactly that — a datagram
sent *to another shard* at ``t`` is delivered no earlier than ``t`` plus the
latency model's cross-shard floor — so with that floor as the ``lookahead``
(:func:`repro.shard.partition.plan_shards` derives it together with the
placement) each window ``[W, W + lookahead)`` is closed under cross-shard
traffic: sends *from inside* the window always land at or past its end,
never inside it.

:class:`ShardedBackend` drives a simulator through such half-open windows,
invoking a *barrier* callback between them.  The barrier (installed by
:mod:`repro.shard`) flushes the window's outbound datagram batches, blocks
until every shard reaches its coordinator-issued bound, inserts the inbound
batches, and returns this shard's *next* bound.  Bounds are per shard and
adaptively widened: the coordinator knows every shard's earliest pending
event, so it jumps empty stretches and stretches a busy shard's window past
quiet neighbours (one lookahead from the nearest foreign event, two from the
shard's own — see the proof in :mod:`repro.shard.runner`).  A repeated bound
is legal — the loop below executes zero events and barriers again while the
other shards catch up.

The final stretch is special: :meth:`Simulator.run`'s contract executes
events *at* ``until`` inclusively, so once the bound reaches the horizon the
backend runs the loop with its ordinary inclusive horizon.  Deliveries
landing exactly at ``until`` may still be in flight from other shards at
that point; the coordinator keeps everyone in the drain loop — run
inclusive, exchange — until a round moves no messages and no shard holds an
event ``<= until``.

Without a barrier the backend is a *chunked plain run*: same windows, no
exchanges — byte-identical to an unwindowed :func:`run_loop` by
construction.  The window-edge unit tests pin that equivalence, which is
what makes the windowing logic trustworthy independently of the multi-shard
machinery.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

from repro.simulation.backend import run_loop

WindowBarrier = Callable[[float], Tuple[float, bool]]
"""``barrier(bound) -> (next_bound, done)``: synchronize after a window.

``bound`` is the window bound just executed; the return value is the next
window bound (non-decreasing — a repeat parks this shard for a round —
capped at the run's ``until``) and whether the run is complete.
"""


def windowed_run_loop(simulator, bound: float, max_events: Optional[int]) -> int:
    """Execute events with ``time`` strictly below ``bound``; return the count.

    The strict bound is the conservative-window contract: an event exactly at
    the bound belongs to the *next* window, where cross-shard datagrams due
    at that instant will have been merged in.  ``time < bound`` is
    ``time <= the float just below bound``, so this is :func:`run_loop` with
    that horizon.
    """
    return run_loop(simulator, math.nextafter(bound, -math.inf), max_events)


class ShardedBackend:
    """Dispatch in conservative time windows of ``lookahead`` seconds.

    Parameters
    ----------
    lookahead:
        The conservative window size — a lower bound on the delay of every
        datagram another shard can send this one.  Must be positive: with a
        zero lower bound a remote event could land at the current instant
        and no window is safe.
    barrier:
        Optional :data:`WindowBarrier` called after every window.  ``None``
        runs the chunked single-simulator mode (testing and the trivial
        one-shard case need no synchronization).
    """

    name = "sharded"

    def __init__(self, lookahead: float, barrier: Optional[WindowBarrier] = None) -> None:
        if lookahead <= 0.0:
            raise ValueError(
                f"sharded dispatch needs a positive lookahead, got {lookahead!r}; "
                "a latency model with a zero floor cannot be sharded"
            )
        self._lookahead = float(lookahead)
        self._barrier = barrier

    @property
    def lookahead(self) -> float:
        """The conservative window size in simulated seconds."""
        return self._lookahead

    def run_loop(self, simulator, until: Optional[float], max_events: Optional[int]) -> int:
        if until is None:
            if self._barrier is not None:
                raise ValueError(
                    "a barriered sharded run needs an explicit time horizon "
                    "(run(until=...)); run_until_idle() cannot coordinate shards"
                )
            return run_loop(simulator, until, max_events)
        queue = simulator._queue
        lookahead = self._lookahead
        executed = 0
        bound = min(until, simulator.now + lookahead)
        while True:
            budget = None if max_events is None else max_events - executed
            if bound < until:
                executed += windowed_run_loop(simulator, bound, budget)
            else:
                executed += run_loop(simulator, until, budget)
            if max_events is not None and executed >= max_events:
                # The event budget is a local safety valve; a budgeted stop
                # abandons the window protocol exactly like a scalar stop
                # abandons pending events.
                return executed
            if self._barrier is not None:
                bound, done = self._barrier(bound)
                if done:
                    return executed
                continue
            peek = queue.peek_time()
            if peek is None or bound >= until:
                return executed
            # Chunked mode: jump the next window to just past the next event
            # (peek >= bound here — everything below the bound already ran).
            bound = min(until, peek + lookahead)
