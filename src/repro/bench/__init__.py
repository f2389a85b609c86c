"""Unified benchmark subsystem: registry, runner, baselines, CI gate.

Every benchmark registers here as a :class:`Benchmark` spec; one runner
executes any subset
(``python -m repro.bench run --filter engine --scale smoke --json out.json``),
every run writes the same versioned JSON report schema, and a committed
:class:`BaselineStore` under ``benchmarks/baselines/`` turns reports into a
regression verdict (``python -m repro.bench compare <report>``).

Designed for noisy 1-core CI runners: only deterministic counters and
in-process ratios are recorded, and all of them gate; wall clock is
``benchmarks/e2e/``'s.  See :mod:`repro.bench.spec` for the policy.
"""

from repro.bench.baseline import (
    BaselineStore,
    CompareOutcome,
    MetricVerdict,
    compare_record,
    compare_report,
    default_baseline_root,
)
from repro.bench.report import BenchmarkRecord, BenchReport, ReportError, host_hints
from repro.bench.runner import BenchmarkRunError, run_benchmark, run_selected
from repro.bench.spec import (
    Benchmark,
    BenchContext,
    BenchmarkRegistry,
    Metric,
    default_registry,
)
from repro.bench import suite as _suite  # populates the default registry

register_all = _suite.register_all

__all__ = [
    "BaselineStore",
    "BenchContext",
    "Benchmark",
    "BenchmarkRecord",
    "BenchmarkRegistry",
    "BenchmarkRunError",
    "BenchReport",
    "CompareOutcome",
    "Metric",
    "MetricVerdict",
    "ReportError",
    "compare_record",
    "compare_report",
    "default_baseline_root",
    "default_registry",
    "host_hints",
    "register_all",
    "run_benchmark",
    "run_selected",
]
