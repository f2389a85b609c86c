"""Experiment harness: regenerate every figure of the paper's evaluation.

The paper's evaluation (Section 4) consists of eight figures; each has a
generator here that sweeps the relevant parameter, runs one
:class:`~repro.core.session.StreamingSession` per point, and returns a
:class:`FigureResult` whose series mirror the lines of the original plot.

Because a 230-node, multi-minute PlanetLab deployment is far beyond what a
pure-Python packet-level simulation can sweep in reasonable time, every
generator takes an :class:`ExperimentScale` choosing the system size, stream
length and parameter grids: ``SMOKE`` (fast, for tests), ``REDUCED`` (the
default used by the benchmark harness, whose reports go to
``benchmarks/results/``), ``PAPER`` (the paper's full 230-node
configuration, for users with patience) and
``XLARGE`` (1,000 nodes at the paper's stream geometry, served by the
fast path — see ``python -m repro.bench run --filter large-session``).
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(globals(), {
    "repro.experiments.figures": (
        "FigureResult",
        "figure_points",
        "figure1_fanout_700",
        "figure2_lag_cdf",
        "figure3_fanout_relaxed_caps",
        "figure4_bandwidth_usage",
        "figure5_refresh_rate",
        "figure6_feedme_rate",
        "figure7_churn_unaffected",
        "figure8_churn_windows",
    ),
    "repro.experiments.runner": ("ExperimentPoint", "format_rate", "run_point"),
    "repro.experiments.scale": (
        "METROPOLIS",
        "PAPER",
        "REDUCED",
        "SMOKE",
        "XLARGE",
        "ExperimentScale",
        "scale_by_name",
    ),
})

__all__ = [
    "ExperimentPoint",
    "ExperimentScale",
    "FigureResult",
    "METROPOLIS",
    "PAPER",
    "REDUCED",
    "SMOKE",
    "XLARGE",
    "figure1_fanout_700",
    "figure2_lag_cdf",
    "figure3_fanout_relaxed_caps",
    "figure4_bandwidth_usage",
    "figure5_refresh_rate",
    "figure6_feedme_rate",
    "figure7_churn_unaffected",
    "figure8_churn_windows",
    "figure_points",
    "format_rate",
    "run_point",
    "scale_by_name",
]
