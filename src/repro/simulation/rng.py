"""Deterministic, named random-number streams.

A single experiment uses randomness in many independent places: partner
selection on every node, per-link latency jitter, uniform message loss, churn
victim selection, and workload generation.  Seeding them all from one
``random.Random`` would make every component's draws depend on the exact
*order* in which other components happen to draw — changing the fanout would
silently change the latency samples.

Instead, every consumer asks the :class:`RngRegistry` for a *named* stream
("latency", "loss", "partners/node-17", ...).  Each stream's seed is derived
from the root seed and the name with a cryptographic hash, so:

* the same (seed, name) always yields the same stream, regardless of what
  other streams exist or how much they have been consumed;
* distinct names yield statistically independent streams.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a child seed from ``root_seed`` and a stream ``name``.

    The derivation is stable across Python versions and processes (it does
    not use ``hash()``, which is salted).
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """Factory and cache of named :class:`random.Random` streams."""

    __slots__ = ("_root_seed", "_streams")

    def __init__(self, root_seed: int = 0) -> None:
        self._root_seed = int(root_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream registered under ``name``, creating it if needed."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        created = random.Random(derive_seed(self._root_seed, name))
        self._streams[name] = created
        return created

    def node_stream(self, purpose: str, node_id: int) -> random.Random:
        """Convenience for per-node streams, e.g. ``node_stream("partners", 17)``."""
        return self.stream(f"{purpose}/node-{node_id}")

