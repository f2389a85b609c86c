"""Membership substrate: who is in the system and who can be gossiped to.

The paper deliberately avoids any structured overlay: every node knows the
full membership and ``selectNodes(f)`` returns ``f`` uniformly random nodes.
This package provides that substrate plus the two proactiveness mechanisms
the paper studies and the churn schedule used in Section 4.3:

* :class:`MembershipDirectory` — the full-membership list with a configurable
  failure-detection delay (failed nodes linger in views for a while, which is
  what produces the short quality dip around a churn event).
* :class:`PartnerSelector` — per-node partner set with the *view refresh
  rate* ``X`` (refresh ``selectNodes`` output every ``X`` gossip periods) and
  support for *feed-me* insertions (the ``Y`` mechanism).
* :class:`CatastrophicChurn` — the churn schedule that fails a fraction of
  nodes at once (the paper's scenario).
* :class:`FlashCrowdJoin` — the mirror perturbation: a burst of nodes
  *joining* mid-stream, kept out of the directory until their join time.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(globals(), {
    "repro.membership.churn": ("CatastrophicChurn",),
    "repro.membership.directory": ("MembershipDirectory",),
    "repro.membership.join": ("FlashCrowdJoin",),
    "repro.membership.partners": ("INFINITE", "PartnerSelector"),
})

__all__ = [
    "CatastrophicChurn",
    "FlashCrowdJoin",
    "INFINITE",
    "MembershipDirectory",
    "PartnerSelector",
]
