"""How fast is the host right now?  A calibration kernel interleaved with the work.

The reference host is a shared 2-core VM: the same 2 s session takes 1.7 s in
a quiet minute and 2.0-3.5 s in a busy one (measured), CPU time inflates with
wall time, no steal is reported, and busy spells outlast a whole run — so no
statistic over a run's repetitions can remove them.  What can is measuring the
host itself while the work runs: every 20 ms a timer interrupts the operation
and runs a fixed ~0.65 ms pure-Python kernel (heap, dict, method calls, float
arithmetic — the simulator's instruction mix, none of its code) twice, timing
the second.  The operation's time, less the probe's own, is then divided by
how much slower than :data:`REFERENCE_KERNEL_S` the kernel ran.

Why inside the operation and against a constant: in recordings of 60
consecutive repetitions, every variant computed from the same repetitions,
the six-repetition medians spread (quartile distance over median) by 2.7 %
(``paper230``) and 19 % (``shard2``) as raw wall time; 3.5 % and 5.0 % scaled
by kernel bursts *between* repetitions (the host changes speed within
seconds); 4.0 % and 8.8 % scaled by this probe against a reference measured
at the start of each six (which scales a run to however busy the host was at
that moment); 1.5 % and 3.4 % as done here.  In a busy spell raw ``paper230``
spread 23-44 % and stayed under 4 % scaled.  ``README.md`` has the table.

What keeps the divisor honest: the timed kernel follows an untimed one, so it
runs from caches it has just filled itself whatever the operation left in
them (timed cold it read 5-15 % slow, and a change that raised the operation's
cache pressure would have slowed it further and hidden part of its own
regression; warmed it reads within 2 % of a standalone burst).  It is timed by
the thread's CPU clock, so a kernel descheduled half-way does not read slow.
A wall-paced operation is not probed at all.  On ``shard2`` the probe runs in
the coordinator and sees the two workers only as competitors for the cores.

:data:`REFERENCE_KERNEL_S` fixes the unit — *seconds on the quiet reference
host* — and cancels in every comparison of two commits; the raw wall median is
always printed beside a scaled one.
"""

from __future__ import annotations

import heapq
import random
import signal
import statistics
import time
from typing import List

#: Mean CPU time of a warmed :func:`kernel` on the quiet 2-core reference host.
REFERENCE_KERNEL_S = 0.00064
PERIOD_S = 0.02


class _Cell:
    __slots__ = ("total", "bias")

    def __init__(self, total: float, bias: float) -> None:
        self.total = total
        self.bias = bias

    def bump(self, amount: float) -> float:
        self.total += amount
        return self.total * 0.5 + self.bias


_CELLS = [_Cell(float(i), i * 0.5) for i in range(64)]
_RNG = random.Random(1)


def kernel() -> float:
    """A fixed amount of interpreter-bound work that touches no ``repro`` code."""
    heap: list = []
    seen = {}
    total = 0.0
    push, pop, draw, cells = heapq.heappush, heapq.heappop, _RNG.random, _CELLS
    for i in range(1500):
        value = draw()
        push(heap, (value, i))
        if i & 3 == 3:
            earliest, index = pop(heap)
            seen[index & 1023] = earliest
        total += cells[i & 63].bump(value)
    return total


class HostSpeedProbe:
    """Times :func:`kernel` on a 20 ms interval timer while a block runs.

    Use as a context manager around one operation in the main thread.  The
    kernel runs in the ``SIGALRM`` handler, between two bytecodes of the
    operation; ``wall_s`` / ``cpu_s`` are what the probe itself consumed (to
    subtract from the operation), ``slowdown`` is the host's speed factor.
    A probe that was never entered reads no cost and a slowdown of 1.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._busy = False
        self._previous = None

    def _on_timer(self, signum, frame) -> None:
        if self._busy:  # a stall outlasted the period; do not nest kernels
            return
        self._busy = True
        start = time.perf_counter()
        cpu0 = time.thread_time()
        kernel()  # untimed: refills the caches the operation evicted
        warmed = time.thread_time()
        kernel()
        cpu1 = time.thread_time()
        self.samples.append(cpu1 - warmed)
        self.cpu_s += cpu1 - cpu0
        self.wall_s += time.perf_counter() - start
        self._busy = False

    def __enter__(self) -> "HostSpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def slowdown(self) -> float:
        """Kernel time now over kernel time on the quiet reference host.

        The plain mean, because the operation's time is the sum of its parts
        at whatever speed the host ran each; the samples are the thread's CPU
        time, so a kernel that was descheduled half-way does not read slow.
        """
        if not self.samples:
            return 1.0
        return statistics.fmean(self.samples) / REFERENCE_KERNEL_S
