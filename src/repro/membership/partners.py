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
from typing import Callable, Dict, List, Optional

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
        #: Called as ``catch_up(now)`` before a FEED_ME draw or insertion
        #: reads the stream: the owner first replays the rounds it skipped
        #: (:meth:`repro.core.node.GossipNode.catch_up`).
        self.catch_up: Optional[Callable[[float], None]] = None

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def _sample(self, now: float) -> List[NodeId]:
        """``min(f, n)`` distinct uniformly random candidates, drawn as stdlib does.

        The candidates are the directory's selectable list without this
        node (``n`` of them).  The result, and every draw it takes from the
        stream, are exactly those of ``rng.sample(candidates, min(f, n))``
        on CPython 3.10–3.13, written out on ``rng.getrandbits`` — the one
        primitive stdlib's ``sample`` draws through — so the fixed-seed
        goldens hold.  Both of stdlib's branches are here: a partial
        Fisher–Yates over a pool when ``n`` is at most ``setsize``, a
        rejection set above it.  Candidate ``j`` is read from the shared
        cached list around this node's position instead of from a copy, and
        the pool is virtual: ``moved`` holds only the slots a draw has
        overwritten.  One frame: the sampler runs on every gossip round.
        """
        base, position = self._directory.selectable_base(now, self.node_id)
        n = len(base)
        if position < n:
            n -= 1
        k = self.fanout if self.fanout < n else n
        getrandbits = self._rng.getrandbits
        result: List[NodeId] = []
        setsize = 21
        if k > 5:
            setsize += 4 ** math.ceil(math.log(k * 3, 4))
        if n <= setsize:
            moved: Dict[int, int] = {}
            for i in range(k):
                remaining = n - i
                bits = remaining.bit_length()
                j = getrandbits(bits)
                while j >= remaining:
                    j = getrandbits(bits)
                picked = moved.get(j, j)
                result.append(base[picked] if picked < position else base[picked + 1])
                last = remaining - 1
                moved[j] = moved.get(last, last)
        else:
            selected = set()
            bits = n.bit_length()
            for _ in range(k):
                j = getrandbits(bits)
                while j >= n or j in selected:
                    j = getrandbits(bits)
                selected.add(j)
                result.append(base[j] if j < position else base[j + 1])
        return result

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
        if self.catch_up is not None:
            self.catch_up(now)
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
        if self.catch_up is not None:
            self.catch_up(now)
        return self._sample(now)
