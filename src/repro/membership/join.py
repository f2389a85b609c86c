"""Join schedules: nodes that enter the system mid-stream.

The paper's deployment starts all 230 nodes before the stream; real live
streaming systems instead see *flash crowds* — a burst of viewers joining
once the stream is already running.  :class:`FlashCrowdJoin` decides which
nodes are late joiners and when they come up; applying the join (adding the
node to the membership directory and starting its timers) is the session's
job, mirroring how churn schedules stay independent of the protocol wiring.

A late joiner only receives packets proposed after its join time: gossip is
a live dissemination protocol, not a catch-up protocol, so the stream-lag
metrics naturally report the joiner's truncated view.
"""

from __future__ import annotations

from typing import Sequence

from repro.network.message import NodeId


class FlashCrowdJoin:
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

    def joiners(self, candidates: Sequence[NodeId]) -> tuple[NodeId, ...]:
        """The ids that stay out until :attr:`time`: the last ``fraction`` of them."""
        count = int(round(len(candidates) * self.fraction))
        if count == 0:
            return ()
        return tuple(sorted(candidates)[-count:])

    def describe(self) -> str:
        """Human-readable one-line description for experiment reports."""
        return f"flash crowd: {self.fraction:.0%} of nodes join at t={self.time:.0f}s"
