"""Configuration of the gossip protocol.

Every knob the paper discusses is a field of :class:`GossipConfig`:

* ``fanout`` — partners contacted per gossip period (the paper sweeps 4–100);
* ``refresh_every`` — the view refresh rate ``X`` (1 = new partners every
  round, :data:`~repro.membership.partners.INFINITE` = static mesh);
* ``feed_me_every`` — the request rate ``Y`` (∞ = disabled, the default);
* ``retransmit_timeout`` / ``max_request_attempts`` — the retransmission
  mechanism (lines 14–15 and 25 of Algorithm 1, ``K`` attempts per packet).
  The paper does not give its retransmission period; the default of 2 s
  (ten gossip periods) is large enough not to trigger duplicate serves for
  packets that are merely queued behind a throttled upload, which matters
  because duplicate serves amplify congestion exactly when the system is
  already loaded;
* ``source_fanout`` — the source proposes each packet to 7 nodes in all of
  the paper's experiments.

The gossip period is not a knob: it is 200 ms in every experiment the paper
runs, so it is the constant :data:`GOSSIP_PERIOD`.  Every node starts its
rounds at its own random phase within one period.  Wire sizes are constants
too, next to the message kinds in :mod:`repro.core.messages`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.membership.partners import INFINITE

GOSSIP_PERIOD = 0.2
"""Seconds between two gossip rounds of a node (200 ms in all of the paper's experiments)."""


@dataclass(frozen=True)
class GossipConfig:
    """All protocol-level knobs of Algorithm 1.

    The defaults reproduce the paper's baseline configuration: fanout 7,
    partner refresh every round (``X = 1``), feed-me disabled (``Y = ∞``),
    retransmission with two attempts per packet, and a source fanout of 7.
    """

    fanout: int = 7
    refresh_every: float = 1
    feed_me_every: float = INFINITE
    retransmit_timeout: float = 2.0
    max_request_attempts: int = 2
    source_fanout: int = 7

    def __post_init__(self) -> None:
        if self.fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {self.fanout!r}")
        if self.refresh_every != INFINITE and (
            self.refresh_every < 1 or int(self.refresh_every) != self.refresh_every
        ):
            raise ValueError(
                f"refresh_every must be a positive integer or INFINITE, got {self.refresh_every!r}"
            )
        if self.feed_me_every != INFINITE and (
            self.feed_me_every < 1 or int(self.feed_me_every) != self.feed_me_every
        ):
            raise ValueError(
                f"feed_me_every must be a positive integer or INFINITE, got {self.feed_me_every!r}"
            )
        if self.retransmit_timeout <= 0.0:
            raise ValueError(
                f"retransmit_timeout must be positive, got {self.retransmit_timeout!r}"
            )
        if self.max_request_attempts < 1:
            raise ValueError(
                f"max_request_attempts must be >= 1, got {self.max_request_attempts!r}"
            )
        if self.source_fanout < 1:
            raise ValueError(f"source_fanout must be >= 1, got {self.source_fanout!r}")
