"""Partner selection: the proactiveness knobs ``X`` and ``Y``.

Section 3 of the paper defines proactiveness as the rate at which a node's
set of communication partners changes, explored two ways:

* the node *locally refreshes* the output of ``selectNodes`` every ``X``
  gossip periods (``X = 1``: fresh random partners every round; ``X = ∞``:
  a static mesh);
* every ``Y`` periods the node sends a *feed-me* request to ``f`` random
  nodes; each of them replaces a uniformly random member of its current
  partner set with the requester.

:class:`PartnerSelector` implements both: the refresh counter drives local
resampling, and :meth:`insert_requester` implements the receiving side of a
feed-me request.  The sending side (actually emitting FEED_ME datagrams)
lives in the protocol (:mod:`repro.core.protocol`) because it consumes
bandwidth like any other message.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional

from repro.network.message import NodeId

from repro.membership.directory import MembershipDirectory

INFINITE: float = math.inf
"""Sentinel for "never" — used for both ``X = ∞`` and ``Y = ∞``."""


class PartnerSelector:
    """Per-node gossip partner set with refresh rate ``X``.

    Parameters
    ----------
    node_id:
        The owning node.
    directory:
        Full-membership directory used for sampling.
    fanout:
        Number of partners per gossip round (``f``).
    refresh_every:
        The paper's ``X``: partners are resampled every ``refresh_every``
        calls to :meth:`partners_for_round`.  Use :data:`INFINITE` for a
        static partner set.
    rng:
        Per-node random stream (so experiments are reproducible and
        independent across nodes).
    """

    def __init__(
        self,
        node_id: NodeId,
        directory: MembershipDirectory,
        fanout: int,
        refresh_every: float,
        rng: random.Random,
    ) -> None:
        if fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {fanout!r}")
        if refresh_every != INFINITE:
            if refresh_every < 1 or int(refresh_every) != refresh_every:
                raise ValueError(
                    f"refresh_every must be a positive integer or INFINITE, got {refresh_every!r}"
                )
        self.node_id = node_id
        self.fanout = int(fanout)
        self.refresh_every = refresh_every
        self._directory = directory
        self._rng = rng
        self._partners: Optional[List[NodeId]] = None
        self._rounds_since_refresh = 0

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def _sample(self, now: float) -> List[NodeId]:
        candidates = self._directory.selectable(now, exclude=self.node_id)
        if not candidates:
            return []
        count = min(self.fanout, len(candidates))
        sampled = self._rng.sample(candidates, count)
        return sampled

    def partners_for_round(self, now: float) -> List[NodeId]:
        """Partners to gossip to for the round starting at ``now``.

        Implements the refresh-every-``X`` semantics: the first call always
        samples; subsequent calls reuse the same set until ``X`` rounds have
        used it, then resample.  With ``X = ∞`` the initial sample is kept
        for the node's whole lifetime (even if some partners crash — exactly
        the fragility the paper measures).
        """
        if self._partners is None:
            self._partners = self._sample(now)
            self._rounds_since_refresh = 1
            return list(self._partners)

        if self.refresh_every != INFINITE and self._rounds_since_refresh >= self.refresh_every:
            self._partners = self._sample(now)
            self._rounds_since_refresh = 1
            return list(self._partners)

        self._rounds_since_refresh += 1
        return list(self._partners)

    # ------------------------------------------------------------------
    # Feed-me support (the ``Y`` mechanism, receiving side)
    # ------------------------------------------------------------------
    def insert_requester(self, requester: NodeId, now: float) -> bool:
        """Replace a uniformly random current partner with ``requester``.

        Implements the receiving side of a feed-me request: "each of the
        random ``f`` partners replaces a random node from its current set of
        ``f`` partners with A".  Returns ``True`` if the set changed.
        """
        if requester == self.node_id:
            return False
        if self._partners is None:
            self._partners = self._sample(now)
        if not self._partners:
            self._partners = [requester]
            return True
        if requester in self._partners:
            return False
        victim_index = self._rng.randrange(len(self._partners))
        self._partners[victim_index] = requester
        return True

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def pick_feed_me_targets(self, now: float) -> List[NodeId]:
        """``f`` uniformly random nodes to send a feed-me request to."""
        candidates = self._directory.selectable(now, exclude=self.node_id)
        if not candidates:
            return []
        count = min(self.fanout, len(candidates))
        return self._rng.sample(candidates, count)
