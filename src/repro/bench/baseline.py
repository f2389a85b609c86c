"""In-repo baseline store and the noise-robust regression comparison.

Baselines are committed, per-benchmark, per-scale report files::

    benchmarks/baselines/<scale>/BENCH_<benchmark>.json

Each file is a single-record :class:`~repro.bench.report.BenchReport`, so a
baseline is simply a frozen run of the same schema everything else writes.
``python -m repro.bench record <report>`` refreshes them from a run's
combined report (the documented workflow after an *intentional* behaviour
or performance change, exactly like regenerating golden files).

Comparison walks every record of a fresh report against its baseline and
produces one :class:`MetricVerdict` per declared metric.  Every metric gates:
deterministic ones exactly, in-process ratios within their relative band (see
:mod:`repro.bench.spec`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from repro.bench.report import BenchmarkRecord, BenchReport, ReportError, current_fingerprint
from repro.bench.spec import EXACT_KINDS, Benchmark, BenchmarkRegistry, Metric

#: Verdict statuses, from best to worst.
IMPROVED = "improved"
OK = "ok"
NEW = "new"
REGRESSED = "regressed"


def default_baseline_root() -> Path:
    """``benchmarks/baselines`` of the repository this package lives in.

    The package sits at ``<repo>/src/repro/bench``, so the repo root is
    three levels up; when the package is installed elsewhere (no
    ``benchmarks/`` sibling), fall back to the working directory so the CLI
    flag / relative layout still works.
    """
    repo_root = Path(__file__).resolve().parents[3]
    candidate = repo_root / "benchmarks" / "baselines"
    if (repo_root / "benchmarks").is_dir():
        return candidate
    return Path("benchmarks") / "baselines"


@dataclass(frozen=True)
class MetricVerdict:
    """The comparison outcome of one metric of one benchmark."""

    benchmark: str
    metric: str
    status: str
    value: float
    baseline: Optional[float] = None
    band: Optional[float] = None
    note: str = ""

    def describe(self) -> str:
        """One aligned row of the verdict table."""
        value = f"{self.value:,.6g}"
        baseline = "-" if self.baseline is None else f"{self.baseline:,.6g}"
        if self.baseline is not None and self.value != self.baseline and value == baseline:
            # Exact-compare mismatch invisible at 6 significant digits
            # (e.g. a 48-bit checksum off by one): show full precision.
            value = f"{self.value:,.17g}"
            baseline = f"{self.baseline:,.17g}"
        band = "-" if self.band is None else f"±{self.band:.0%}"
        note = f"  {self.note}" if self.note else ""
        return (
            f"{self.status:<9} {self.benchmark:<24} {self.metric:<28} "
            f"{value:>14} {baseline:>14} {band:>6}{note}"
        )


@dataclass
class CompareOutcome:
    """All verdicts of one report comparison."""

    scale: str
    verdicts: List[MetricVerdict]
    notes: List[str]

    @property
    def regressions(self) -> List[MetricVerdict]:
        return [v for v in self.verdicts if v.status == REGRESSED]

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressions)

    def table(self) -> str:
        """The full verdict table as text."""
        header = (
            f"{'status':<9} {'benchmark':<24} {'metric':<28} "
            f"{'value':>14} {'baseline':>14} {'band':>6}"
        )
        lines = [header, "-" * len(header)]
        lines.extend(verdict.describe() for verdict in self.verdicts)
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


class BaselineStore:
    """Reads and writes the committed per-benchmark baseline files."""

    def __init__(self, root=None) -> None:
        self.root = Path(root) if root is not None else default_baseline_root()

    def path_for(self, scale: str, benchmark: str) -> Path:
        return self.root / scale / f"BENCH_{benchmark}.json"

    def load(self, scale: str, benchmark: str) -> Optional[BenchmarkRecord]:
        """The baseline record, or ``None`` when never recorded."""
        path = self.path_for(scale, benchmark)
        if not path.exists():
            return None
        report = BenchReport.load(path)
        if report.scale != scale:
            raise ReportError(
                f"baseline {path} was recorded at scale {report.scale!r}, "
                f"but sits in the {scale!r} directory"
            )
        return report.single()

    def record(self, report: BenchReport) -> List[Path]:
        """Freeze every record of ``report`` as that benchmark's baseline."""
        written = []
        for record in report.results:
            baseline = BenchReport(
                scale=report.scale,
                fingerprint=report.fingerprint,
                results=[record],
                host=report.host,
            )
            written.append(baseline.write(self.path_for(report.scale, record.benchmark)))
        return written


def _verdict_for(metric: Metric, benchmark: str, value: float, baseline: Optional[float]):
    """Compare one metric value against its baseline under the spec's band."""
    if baseline is None:
        return MetricVerdict(
            benchmark, metric.name, NEW, value, None, metric.band, "no baseline metric"
        )
    if metric.kind in EXACT_KINDS:
        # Deterministic quantities: exact equality or it counts.  ``identity``
        # has no good direction — any drift is a behaviour change.
        if value == baseline:
            return MetricVerdict(benchmark, metric.name, OK, value, baseline, 0.0)
        if metric.kind == "identity":
            return MetricVerdict(
                benchmark,
                metric.name,
                REGRESSED,
                value,
                baseline,
                0.0,
                "deterministic value changed — re-record if intentional",
            )
        improved = (value > baseline) == metric.higher_is_better
        return MetricVerdict(
            benchmark, metric.name, IMPROVED if improved else REGRESSED, value, baseline, 0.0
        )
    band = metric.band
    scale = abs(baseline) if baseline != 0 else 1.0
    delta = value - baseline
    if not metric.higher_is_better:
        delta = -delta
    if delta < -band * scale:
        return MetricVerdict(benchmark, metric.name, REGRESSED, value, baseline, metric.band)
    if delta > band * scale:
        return MetricVerdict(benchmark, metric.name, IMPROVED, value, baseline, metric.band)
    return MetricVerdict(benchmark, metric.name, OK, value, baseline, metric.band)


def compare_record(
    benchmark: Benchmark,
    record: BenchmarkRecord,
    baseline: Optional[BenchmarkRecord],
) -> List[MetricVerdict]:
    """Verdicts for every *declared* metric of one benchmark."""
    verdicts = []
    for metric in benchmark.metrics:
        if metric.name not in record.metrics:
            verdicts.append(
                MetricVerdict(
                    benchmark.name,
                    metric.name,
                    REGRESSED,
                    float("nan"),
                    None,
                    metric.band,
                    "metric missing from report",
                )
            )
            continue
        value = record.metrics[metric.name]
        base_value = baseline.metrics.get(metric.name) if baseline is not None else None
        verdicts.append(_verdict_for(metric, benchmark.name, value, base_value))
    return verdicts


def compare_report(
    report: BenchReport,
    registry: BenchmarkRegistry,
    store: Optional[BaselineStore] = None,
) -> CompareOutcome:
    """Compare a run report against the committed baselines.

    Benchmarks present in the report but unknown to the registry are noted
    and skipped (their metric specs — and hence their gating policy — are
    gone, so nothing can be concluded); missing baselines produce ``new``
    verdicts, which do not fail the gate but tell you to ``record``.
    """
    store = store if store is not None else BaselineStore()
    verdicts: List[MetricVerdict] = []
    notes: List[str] = []
    for record in report.results:
        try:
            benchmark = registry.get(record.benchmark)
        except KeyError:
            notes.append(f"report contains unregistered benchmark {record.benchmark!r}; skipped")
            continue
        baseline = store.load(report.scale, record.benchmark)
        if baseline is None:
            notes.append(
                f"no baseline for {record.benchmark!r} at scale {report.scale!r} "
                f"(record one with: python -m repro.bench record <report>)"
            )
        verdicts.extend(compare_record(benchmark, record, baseline))
    if report.fingerprint != current_fingerprint():
        notes.append("report was produced by a different code fingerprint than the running tree")
    return CompareOutcome(scale=report.scale, verdicts=verdicts, notes=notes)
