"""Churn schedules.

Section 4.3 of the paper evaluates a *catastrophic* churn scenario: at a
given instant, a randomly chosen percentage of the nodes (10 % to 80 %) fail
simultaneously.  :class:`CatastrophicChurn` reproduces it.

A churn schedule only *decides* who fails and when; applying the failure
(stopping the node, telling the network and the directory) is the session's
job, so the schedule stays independent of the protocol wiring.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.network.message import NodeId


class CatastrophicChurn:
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

    def victims(self, candidates: Sequence[NodeId], rng: random.Random) -> tuple[NodeId, ...]:
        """The sorted ids that fail at :attr:`time` (empty: no draw is made)."""
        count = int(round(len(candidates) * self.fraction))
        if count == 0:
            return ()
        return tuple(sorted(rng.sample(list(candidates), count)))

    def describe(self) -> str:
        """Human-readable one-line description for experiment reports."""
        return f"catastrophic churn: {self.fraction:.0%} of nodes at t={self.time:.0f}s"
