"""Sim-vs-real agreement: run one scenario on both backends, diff metrics.

The payoff of the real-network backend is *validation*: if the simulator's
figures are honest, a small-n scenario executed over real UDP sockets must
land on comparable numbers.  :func:`compare_backends` runs the same
:class:`~repro.core.session.SessionConfig` through the simulator and
through :class:`~repro.realnet.session.RealNetSession`, folds both results
into the sweep layer's :class:`~repro.sweep.summary.PointSummary`
(identical extraction code — the comparison can never drift from the
figure pipeline), and reports per-metric deltas.

Expected agreement on localhost
-------------------------------
Delivery ratio is the strong claim: both backends share the limiter, loss
and latency physics, so at small n the ratios agree to a delivery or two —
:data:`DELIVERY_RATIO_TOLERANCE` (|Δ| ≤ 0.01) is the gate, set from the
measured spread with threefold headroom for wall-clock jitter.
Lag-sensitive metrics (viewing percentages at tight lags) agree more
loosely: real timer dispatch adds milliseconds of skew per hop that
virtual time does not have.  The report carries every delta so drifts are
visible even where no gate applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.session import SessionConfig, SessionResult, StreamingSession
from repro.metrics.quality import OFFLINE_LAG
from repro.sweep.summary import MetricsRequest, PointSummary, summarize

from repro.realnet.session import RealNetConfig, RealNetSession

DELIVERY_RATIO_TOLERANCE = 0.01
"""Localhost gate on ``|sim − real|`` delivery ratio, measured in docs/realnet.md.

The smallest multiple of 0.01 that is at least three times the largest
``|Δ|`` over 20 seeds, idle and beside a busy core (0.0017 both ways: one
delivery in 594).
"""


@dataclass(frozen=True)
class MetricDelta:
    """One metric on both backends and their difference."""

    name: str
    sim: float
    real: float

    @property
    def delta(self) -> float:
        """``real − sim`` (positive when the real run scored higher)."""
        return self.real - self.sim

    def within(self, tolerance: float) -> bool:
        """Whether ``|delta|`` is at most ``tolerance``."""
        return abs(self.delta) <= tolerance


@dataclass
class BackendComparison:
    """The full sim-vs-real report of one scenario."""

    config: SessionConfig
    sim: PointSummary
    real: PointSummary
    deltas: List[MetricDelta] = field(default_factory=list)

    def metric(self, name: str) -> MetricDelta:
        """One delta by metric name (raises ``KeyError`` when absent)."""
        for delta in self.deltas:
            if delta.name == name:
                return delta
        raise KeyError(f"comparison has no metric {name!r}")

    @property
    def delivery_delta(self) -> MetricDelta:
        """The gated metric: delivery ratio on both backends."""
        return self.metric("delivery_ratio")

    def passed(self) -> bool:
        """Whether the delivery-ratio delta is within :data:`DELIVERY_RATIO_TOLERANCE`."""
        return self.delivery_delta.within(DELIVERY_RATIO_TOLERANCE)

    def to_json_dict(self) -> Dict[str, object]:
        """A plain-JSON rendering of the report (for CI artifacts)."""
        return {
            "num_nodes": self.config.num_nodes,
            "seed": self.config.seed,
            "protocol": self.config.protocol,
            "tolerance": DELIVERY_RATIO_TOLERANCE,
            "passed": self.passed(),
            "metrics": [
                {"name": d.name, "sim": d.sim, "real": d.real, "delta": d.delta}
                for d in self.deltas
            ],
        }

    def format_text(self) -> str:
        """A fixed-width table of every metric, sim vs real."""
        lines = [
            f"sim-vs-real: {self.config.num_nodes} nodes, seed {self.config.seed}, "
            f"protocol {self.config.protocol}",
            f"{'metric':<28} {'sim':>10} {'real':>10} {'delta':>10}",
        ]
        for d in self.deltas:
            lines.append(f"{d.name:<28} {d.sim:>10.4f} {d.real:>10.4f} {d.delta:>+10.4f}")
        verdict = "PASS" if self.passed() else "FAIL"
        lines.append(
            f"delivery-ratio gate: |{self.delivery_delta.delta:+.4f}| "
            f"<= {DELIVERY_RATIO_TOLERANCE} -> {verdict}"
        )
        return "\n".join(lines)


def _comparison_request() -> MetricsRequest:
    """Metrics both summaries extract (no per-node usage: n is small)."""
    return MetricsRequest(
        viewing_lags=(5.0, 10.0, OFFLINE_LAG),
        window_lags=(10.0,),
        lag_cdf_grid=(),
        include_usage=True,
    )


def _deltas(sim: PointSummary, real: PointSummary) -> List[MetricDelta]:
    deltas = [MetricDelta("delivery_ratio", sim.delivery_ratio, real.delivery_ratio)]
    for (lag, sim_value), (_, real_value) in zip(sim.viewing, real.viewing):
        label = "inf" if lag == OFFLINE_LAG else f"{lag:g}s"
        deltas.append(MetricDelta(f"viewing_pct@{label}", sim_value, real_value))
    for (lag, sim_value), (_, real_value) in zip(sim.complete_windows, real.complete_windows):
        deltas.append(MetricDelta(f"complete_windows_pct@{lag:g}s", sim_value, real_value))
    sim_usage = sum(sim.sorted_usage_kbps) / len(sim.sorted_usage_kbps) if sim.sorted_usage_kbps else 0.0
    real_usage = (
        sum(real.sorted_usage_kbps) / len(real.sorted_usage_kbps) if real.sorted_usage_kbps else 0.0
    )
    deltas.append(MetricDelta("mean_upload_kbps", sim_usage, real_usage))
    return deltas


def compare_backends(
    config: SessionConfig, realnet: Optional[RealNetConfig] = None
) -> BackendComparison:
    """Run ``config`` on the simulator and on real UDP, report the deltas.

    Parameters
    ----------
    config:
        The scenario to run on both backends (``shards`` must be ``None``).
    realnet:
        Real-backend knobs (time scale, ports).

    The report passes when the delivery-ratio delta is within
    :data:`DELIVERY_RATIO_TOLERANCE`.
    """
    sim_result = StreamingSession(config).run()
    real_result = RealNetSession(config, realnet).run()
    return compare_results(config, sim_result, real_result)


def compare_results(
    config: SessionConfig,
    sim_result: SessionResult,
    real_result: SessionResult,
) -> BackendComparison:
    """The deltas of two finished runs of ``config``: simulated, then real."""
    request = _comparison_request()
    sim_summary = summarize(sim_result, request, cell_id="sim", seed=config.seed)
    real_summary = summarize(real_result, request, cell_id="real", seed=config.seed)
    return BackendComparison(
        config=config,
        sim=sim_summary,
        real=real_summary,
        deltas=_deltas(sim_summary, real_summary),
    )


__all__ = [
    "BackendComparison",
    "DELIVERY_RATIO_TOLERANCE",
    "MetricDelta",
    "compare_backends",
    "compare_results",
]
