"""Experiment scales: how big a reproduction run is.

The paper deploys 230 PlanetLab nodes and streams for minutes.  A pure-Python
packet-level simulation cannot sweep that configuration across eight figures
in reasonable time, so experiments are parameterized by a *scale*:

* :data:`SMOKE` — 30 nodes, short stream; seconds per run.  Used by the test
  suite's integration tests.
* :data:`REDUCED` — 60 nodes, ≈ 29 s of stream; tens of seconds per run.
  This is the scale behind ``benchmarks/`` and ``benchmarks/results/``.
* :data:`PAPER` — the paper's own 230 nodes, 600 kbps, 110-packet windows,
  ≈ 2 minutes of stream.  Provided for completeness; a full figure sweep at
  this scale takes hours of CPU.
* :data:`XLARGE` — 1,000 nodes at the paper's exact stream geometry
  (600 kbps, 101 + 9 windows), the gossip literature's evaluation size.
  Single sessions are practical thanks to the fast path
  (``python -m repro.bench run --filter large-session`` runs one and reports stage
  timings); full figure sweeps remain multi-core territory.

Besides sizes, a scale also fixes the parameter grids (fanouts, X/Y values,
churn fractions) so that figures probe sensible ranges for the system size:
the interesting fanout range scales with ``ln(n)`` and with the number of
nodes available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.config import GossipConfig
from repro.core.session import SessionConfig
from repro.membership.churn import CatastrophicChurn
from repro.membership.partners import INFINITE
from repro.network.transport import NetworkConfig
from repro.scenarios.registry import large_session, metropolis
from repro.streaming.schedule import StreamConfig


@dataclass(frozen=True)
class ExperimentScale:
    """A complete sizing of the reproduction experiments.

    Attributes
    ----------
    name:
        Short identifier (``"smoke"``, ``"reduced"``, ``"paper"``).
    num_nodes:
        Total nodes including the source.
    payload_bytes / source_packets_per_window / fec_packets_per_window /
    num_windows:
        Stream layout (see :class:`~repro.streaming.schedule.StreamConfig`).
    max_backlog_seconds:
        Upload-throttling queue capacity.
    extra_time:
        Drain time after the last packet is published.
    retransmit_timeout:
        Retransmission timeout.
    random_loss:
        In-flight loss probability.
    seed:
        Base seed; individual experiment points derive their own seeds.
    fanout_grid:
        Fanout sweep used by Figures 1–3.
    lag_values:
        The playout lags reported by the viewing-percentage figures.
    refresh_grid / feedme_grid:
        The X and Y sweeps of Figures 5 and 6.
    churn_grid:
        Failure fractions of Figures 7 and 8.
    churn_refresh_values:
        The X values compared under churn.
    fig2_fanouts:
        Fanouts whose lag CDF Figure 2 plots.
    fig4_pairs:
        (fanout, cap_kbps) combinations of Figure 4.
    churn_time:
        Simulated time of the catastrophic failure.
    fanout_collapse_expected:
        Whether the scale's largest grid fanout congests the upload caps
        enough to collapse real-time viewing (the right edge of the paper's
        good-fanout window).  True at 60+ nodes; at the 30-node smoke scale
        the caps never saturate, the collapse regime does not exist, and
        shape checks must assert the curve *stays high* instead.
    """

    name: str
    num_nodes: int
    payload_bytes: int
    source_packets_per_window: int
    fec_packets_per_window: int
    num_windows: int
    max_backlog_seconds: float
    extra_time: float
    retransmit_timeout: float = 2.0
    random_loss: float = 0.01
    seed: int = 42
    fanout_grid: Tuple[int, ...] = (4, 5, 6, 7, 10, 15, 20, 30, 40, 50)
    lag_values: Tuple[float, ...] = (10.0, 20.0, math.inf)
    refresh_grid: Tuple[float, ...] = (1, 2, 5, 10, 20, 50, 100, INFINITE)
    feedme_grid: Tuple[float, ...] = (1, 2, 5, 10, 20, 50, 100, INFINITE)
    churn_grid: Tuple[float, ...] = (0.1, 0.2, 0.35, 0.5, 0.65, 0.8)
    churn_refresh_values: Tuple[float, ...] = (1, 2, 20, INFINITE)
    fig2_fanouts: Tuple[int, ...] = (4, 5, 7, 10, 20, 30, 40, 50)
    fig2_lag_grid: Tuple[float, ...] = tuple(float(t) for t in range(0, 91, 5))
    fig3_caps_kbps: Tuple[float, ...] = (1000.0, 2000.0)
    fig4_pairs: Tuple[Tuple[int, float], ...] = (
        (7, 700.0),
        (40, 700.0),
        (40, 1000.0),
        (40, 2000.0),
        (55, 2000.0),
    )
    churn_time: float = 10.0
    optimal_fanout: int = 7
    fanout_collapse_expected: bool = True

    def __post_init__(self) -> None:
        if self.num_nodes < 3:
            raise ValueError(f"an experiment scale needs at least 3 nodes, got {self.num_nodes!r}")
        for fanout in self.fanout_grid:
            if fanout >= self.num_nodes:
                raise ValueError(
                    f"fanout {fanout} in grid is not smaller than the system size {self.num_nodes}"
                )
        if self.optimal_fanout not in self.fanout_grid:
            raise ValueError(
                f"optimal_fanout {self.optimal_fanout} must be part of fanout_grid "
                f"{self.fanout_grid} so figure checks can reference it"
            )

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def stream_config(self) -> StreamConfig:
        """The stream layout of this scale."""
        return StreamConfig(
            rate_kbps=600.0,
            payload_bytes=self.payload_bytes,
            source_packets_per_window=self.source_packets_per_window,
            fec_packets_per_window=self.fec_packets_per_window,
            num_windows=self.num_windows,
        )

    def network_config(self, cap_kbps: Optional[float] = None) -> NetworkConfig:
        """Network substrate with the given upload cap (default 700 kbps)."""
        network = NetworkConfig(
            max_backlog_seconds=self.max_backlog_seconds,
            latency_model="per-node",
            random_loss=self.random_loss,
        )
        if cap_kbps is not None:
            network.upload_cap_kbps = cap_kbps
        return network

    def gossip_config(
        self,
        fanout: Optional[int] = None,
        refresh_every: float = 1,
        feed_me_every: float = INFINITE,
    ) -> GossipConfig:
        """Protocol knobs with this scale's timing defaults."""
        return GossipConfig(
            fanout=self.optimal_fanout if fanout is None else fanout,
            refresh_every=refresh_every,
            feed_me_every=feed_me_every,
            retransmit_timeout=self.retransmit_timeout,
        )

    def session_config(
        self,
        fanout: Optional[int] = None,
        cap_kbps: Optional[float] = None,
        refresh_every: float = 1,
        feed_me_every: float = INFINITE,
        churn_fraction: float = 0.0,
        seed_offset: int = 0,
        protocol: str = "three-phase",
    ) -> SessionConfig:
        """A full session configuration for one experiment point."""
        churn: Optional[CatastrophicChurn] = None
        if churn_fraction > 0.0:
            churn = CatastrophicChurn(time=self.churn_time, fraction=churn_fraction)
        return SessionConfig(
            num_nodes=self.num_nodes,
            seed=self.seed + seed_offset,
            gossip=self.gossip_config(fanout, refresh_every, feed_me_every),
            stream=self.stream_config(),
            network=self.network_config(cap_kbps),
            protocol=protocol,
            churn=churn,
            extra_time=self.extra_time,
        )

    @property
    def stream_duration(self) -> float:
        """Length of the published stream in seconds."""
        return self.stream_config().duration

    def describe(self) -> str:
        """One-line human-readable description."""
        return (
            f"scale {self.name!r}: {self.num_nodes} nodes, "
            f"{self.stream_duration:.0f}s stream, windows of "
            f"{self.source_packets_per_window}+{self.fec_packets_per_window} packets"
        )


SMOKE = ExperimentScale(
    name="smoke",
    num_nodes=30,
    payload_bytes=1000,
    source_packets_per_window=20,
    fec_packets_per_window=2,
    num_windows=40,
    max_backlog_seconds=8.0,
    extra_time=25.0,
    fanout_grid=(3, 4, 5, 7, 10, 15, 20),
    fig2_fanouts=(4, 7, 15, 20),
    fig2_lag_grid=tuple(float(t) for t in range(0, 61, 5)),
    fig4_pairs=((5, 700.0), (20, 700.0), (20, 2000.0)),
    refresh_grid=(1, 2, 10, 100, INFINITE),
    feedme_grid=(1, 2, 10, 100, INFINITE),
    churn_grid=(0.2, 0.5, 0.8),
    churn_refresh_values=(1, INFINITE),
    fig3_caps_kbps=(2000.0,),
    optimal_fanout=7,
    fanout_collapse_expected=False,
)
"""Small and fast: integration tests and quick sanity experiments."""

REDUCED = ExperimentScale(
    name="reduced",
    num_nodes=60,
    payload_bytes=1000,
    source_packets_per_window=20,
    fec_packets_per_window=2,
    num_windows=100,
    max_backlog_seconds=10.0,
    extra_time=40.0,
)
"""Default scale for benchmarks and their reports (≈ 29 s stream, 60 nodes)."""

PAPER = ExperimentScale(
    name="paper",
    num_nodes=230,
    payload_bytes=1000,
    source_packets_per_window=101,
    fec_packets_per_window=9,
    num_windows=80,
    max_backlog_seconds=20.0,
    extra_time=90.0,
    fanout_grid=(4, 5, 6, 7, 10, 15, 20, 35, 40, 50, 80),
    fig2_fanouts=(4, 5, 6, 7, 10, 20, 35, 40, 50),
    fig2_lag_grid=tuple(float(t) for t in range(0, 151, 5)),
    fig4_pairs=((7, 700.0), (50, 700.0), (50, 1000.0), (50, 2000.0), (100, 2000.0)),
    optimal_fanout=7,
)
"""The paper's own configuration (230 nodes, 110-packet windows, ≈ 2 min)."""

# The xlarge scale and the registered "large-session" scenario are the same
# geometry by construction: the scenario spec is the single source of truth
# and the scale derives its sizing from it.
_LARGE_SESSION_SPEC = large_session()

XLARGE = ExperimentScale(
    name="xlarge",
    num_nodes=_LARGE_SESSION_SPEC.num_nodes,
    payload_bytes=_LARGE_SESSION_SPEC.stream.payload_bytes,
    source_packets_per_window=_LARGE_SESSION_SPEC.stream.source_packets_per_window,
    fec_packets_per_window=_LARGE_SESSION_SPEC.stream.fec_packets_per_window,
    num_windows=_LARGE_SESSION_SPEC.stream.num_windows,
    max_backlog_seconds=_LARGE_SESSION_SPEC.max_backlog_seconds,
    extra_time=_LARGE_SESSION_SPEC.extra_time,
    fanout_grid=(4, 5, 6, 7, 10, 15, 20, 35, 50, 80, 120, 200),
    fig2_fanouts=(4, 5, 7, 10, 20, 50, 120),
    fig2_lag_grid=tuple(float(t) for t in range(0, 151, 5)),
    fig4_pairs=((7, 700.0), (50, 700.0), (50, 1000.0), (50, 2000.0), (120, 2000.0)),
    optimal_fanout=7,
)
"""Beyond-paper size: 1,000 nodes, paper stream ratios (fast-path flagship)."""

# Same single-source-of-truth arrangement as xlarge / "large-session": the
# registered "metropolis" scenario defines the geometry, the scale derives
# its sizing from it.
_METROPOLIS_SPEC = metropolis()

METROPOLIS = ExperimentScale(
    name="metropolis",
    num_nodes=_METROPOLIS_SPEC.num_nodes,
    payload_bytes=_METROPOLIS_SPEC.stream.payload_bytes,
    source_packets_per_window=_METROPOLIS_SPEC.stream.source_packets_per_window,
    fec_packets_per_window=_METROPOLIS_SPEC.stream.fec_packets_per_window,
    num_windows=_METROPOLIS_SPEC.stream.num_windows,
    max_backlog_seconds=_METROPOLIS_SPEC.max_backlog_seconds,
    extra_time=_METROPOLIS_SPEC.extra_time,
    fanout_grid=(4, 5, 6, 7, 10, 15, 20, 35, 50, 80, 120, 200, 500),
    fig2_fanouts=(4, 5, 7, 10, 20, 50, 120),
    fig2_lag_grid=tuple(float(t) for t in range(0, 151, 5)),
    fig4_pairs=((7, 700.0), (50, 700.0), (50, 1000.0), (50, 2000.0), (120, 2000.0)),
    optimal_fanout=7,
)
"""City-scale: 10,000 nodes across shard workers (nightly-benchmark size)."""

_SCALES = {scale.name: scale for scale in (SMOKE, REDUCED, PAPER, XLARGE, METROPOLIS)}


def scale_by_name(name: str) -> ExperimentScale:
    """Look up a predefined scale by name (``smoke``/``reduced``/``paper``/``xlarge``)."""
    try:
        return _SCALES[name]
    except KeyError:
        raise ValueError(
            f"unknown scale {name!r}; available: {sorted(_SCALES)}"
        ) from None


def available_scales() -> List[str]:
    """Names of the predefined scales."""
    return sorted(_SCALES)
