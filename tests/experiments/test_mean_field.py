"""Mean-field reach: a correctness oracle that is not the code.

Infect-and-die gossip in which every node forwards a packet once, to ``f``
partners, over links that lose each datagram with probability ``ε`` reaches
the fraction ``π`` of the nodes that solves ``1 − π = exp(−f(1 − ε)π)``
(Demers et al., "Epidemic algorithms for replicated database maintenance",
PODC 1987; Kermarrec, Massoulié and Ganesh, "Probabilistic reliable
dissemination in large-scale systems", IEEE TPDS 2003).  That is the size of
an epidemic that takes off.  One that does not dies within a node or two:
with ``ε > 0`` the source's own ``f`` sends can all be lost.  Each forwarder
starts a copy of the same branching process, so a packet's epidemic dies
with the probability ``q`` that solves ``q = (ε + (1 − ε)q)^f``, and the
expected reach is ``(1 − q)π``.

Each row runs 230 nodes with no upload cap (no congestion, so nothing but
``f`` and ``ε`` shapes the epidemic) on seeds 1–20 and checks

* the mean ``delivery_ratio()`` against ``(1 − q)π``, within the band of
  its row, and
* the packets whose epidemic died (reached under a tenth of the nodes)
  against ``q`` times the packets sent, within four binomial standard
  deviations.

The bands, the measured spread they come from and the ε = 0.10 row's
offset from the plain ``π`` are in docs/validation.md, "Mean-field reach".
About 160 sessions of 1–3 s: the module runs under the ``meanfield``
marker, which a default run deselects (``python -m pytest -m meanfield``).
"""

from __future__ import annotations

import functools
import math
from typing import List, Tuple

import pytest

from repro.scenarios import build_scenario, run_spec

pytestmark = pytest.mark.meanfield

NUM_NODES = 230
SEEDS = range(1, 21)

#: (protocol, fanout f, loss ε, band on the 20-seed mean).  Each band is
#: 1/230, the order of the finite-size term the limit leaves out, plus
#: three standard errors of the mean measured on these seeds, rounded up
#: to 0.001 (docs/validation.md, "Mean-field reach").
ROWS = (
    ("eager-push", 2, 0.0, 0.008),
    ("three-phase", 2, 0.0, 0.010),
    ("eager-push", 3, 0.0, 0.007),
    ("three-phase", 3, 0.0, 0.007),
    ("eager-push", 4, 0.0, 0.006),
    ("eager-push", 6, 0.0, 0.005),
    ("eager-push", 3, 0.05, 0.006),
    ("eager-push", 2, 0.10, 0.010),
)


def mean_field_reach(fanout: int, loss: float) -> float:
    """The root ``π`` in (0, 1] of ``1 − π = exp(−f(1 − ε)π)``, by bisection."""
    low, high = 1e-9, 1.0
    for _ in range(100):
        middle = (low + high) / 2
        if 1.0 - middle > math.exp(-fanout * (1.0 - loss) * middle):
            low = middle
        else:
            high = middle
    return low


def extinction(fanout: int, loss: float) -> float:
    """The least root ``q`` of ``q = (ε + (1 − ε)q)^f``: the epidemic dies out."""
    q = 0.0
    for _ in range(10_000):
        q = (loss + (1.0 - loss) * q) ** fanout
    return q


@functools.lru_cache(maxsize=None)
def measure(protocol: str, fanout: int, loss: float) -> Tuple[List[float], int, int]:
    """Per-seed delivery ratios, packets whose epidemic died, and packets sent."""
    ratios, died, packets = [], 0, 0
    for seed in SEEDS:
        result = run_spec(
            build_scenario(
                "eager-push", protocol=protocol, num_nodes=NUM_NODES, fanout=fanout,
                source_fanout=fanout, upload_cap_kbps=None, random_loss=loss, seed=seed,
            )
        )
        ratios.append(result.delivery_ratio())
        reach = [0] * result.schedule.num_packets
        for delivered in result.deliveries.raw().values():
            for packet in delivered:
                reach[packet] += 1
        died += sum(1 for count in reach if count < NUM_NODES / 10)
        packets += len(reach)
    return ratios, died, packets


def row_id(row) -> str:
    protocol, fanout, loss, _band = row
    return f"{protocol}-f{fanout}-loss{loss:g}"


@pytest.mark.parametrize("row", ROWS, ids=row_id)
def test_mean_reach_matches_the_mean_field_fixed_point(row):
    protocol, fanout, loss, band = row
    ratios, _died, _packets = measure(protocol, fanout, loss)
    expected = (1.0 - extinction(fanout, loss)) * mean_field_reach(fanout, loss)
    mean = sum(ratios) / len(ratios)
    assert abs(mean - expected) <= band, (mean, expected, band)


@pytest.mark.parametrize("row", ROWS, ids=row_id)
def test_packets_that_die_out_match_the_extinction_probability(row):
    protocol, fanout, loss, _band = row
    _ratios, died, packets = measure(protocol, fanout, loss)
    q = extinction(fanout, loss)
    deviation = 4.0 * math.sqrt(packets * q * (1.0 - q))
    assert abs(died - packets * q) <= deviation, (died, packets * q, deviation)
