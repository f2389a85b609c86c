"""Baseline store + comparison verdicts: improvement / within-band / regression."""

import pytest

from repro.bench.baseline import (
    IMPROVED,
    NEW,
    OK,
    REGRESSED,
    BaselineStore,
    compare_report,
)
from repro.bench.report import BenchmarkRecord, BenchReport, ReportError
from repro.bench.spec import Benchmark, BenchmarkRegistry, Metric


def toy_benchmark() -> Benchmark:
    return Benchmark(
        name="toy",
        description="synthetic benchmark for verdict tests",
        run=lambda ctx: {},
        metrics=(
            Metric("checksum", kind="identity"),
            Metric("quality", kind="counter", higher_is_better=True),
            Metric("speedup", kind="ratio", tolerance=0.5),
            Metric("latency", kind="ratio", tolerance=0.2, higher_is_better=False),
        ),
    )


def registry_with_toy() -> BenchmarkRegistry:
    registry = BenchmarkRegistry()
    registry.register(toy_benchmark())
    return registry


def report_with(metrics: dict) -> BenchReport:
    return BenchReport(
        scale="smoke",
        fingerprint="f" * 16,
        results=[BenchmarkRecord(benchmark="toy", metrics=metrics)],
    )


BASE = {
    "checksum": 123456789012345.0,
    "quality": 90.0,
    "speedup": 4.0,
    "latency": 2.0,
}


@pytest.fixture
def store(tmp_path) -> BaselineStore:
    store = BaselineStore(tmp_path / "baselines")
    store.record(report_with(dict(BASE)))
    return store


def verdicts_for(metrics: dict, store) -> dict:
    outcome = compare_report(report_with(metrics), registry_with_toy(), store)
    return {v.metric: v for v in outcome.verdicts}


class TestVerdicts:
    def test_identical_report_is_all_ok(self, store):
        verdicts = verdicts_for(dict(BASE), store)
        assert verdicts["checksum"].status == OK
        assert verdicts["quality"].status == OK
        assert verdicts["speedup"].status == OK
        assert verdicts["latency"].status == OK

    def test_identity_flags_any_drift_as_regression(self, store):
        up = verdicts_for({**BASE, "checksum": BASE["checksum"] + 1}, store)
        down = verdicts_for({**BASE, "checksum": BASE["checksum"] - 1}, store)
        assert up["checksum"].status == REGRESSED
        assert down["checksum"].status == REGRESSED
        assert "re-record" in up["checksum"].note

    def test_counter_is_exact_but_directional(self, store):
        assert verdicts_for({**BASE, "quality": 90.5}, store)["quality"].status == IMPROVED
        assert verdicts_for({**BASE, "quality": 89.5}, store)["quality"].status == REGRESSED

    def test_ratio_within_band_is_ok(self, store):
        # 4.0 baseline, ±50% band: anything in [2.0, 6.0] is within band.
        assert verdicts_for({**BASE, "speedup": 2.5}, store)["speedup"].status == OK
        assert verdicts_for({**BASE, "speedup": 5.9}, store)["speedup"].status == OK

    def test_ratio_below_band_regresses_and_above_improves(self, store):
        assert verdicts_for({**BASE, "speedup": 1.9}, store)["speedup"].status == REGRESSED
        assert verdicts_for({**BASE, "speedup": 6.1}, store)["speedup"].status == IMPROVED

    def test_lower_is_better_ratio_band_is_mirrored(self, store):
        # 2.0 baseline, ±20% band, lower is better.
        assert verdicts_for({**BASE, "latency": 2.3}, store)["latency"].status == OK
        assert verdicts_for({**BASE, "latency": 2.5}, store)["latency"].status == REGRESSED
        assert verdicts_for({**BASE, "latency": 1.5}, store)["latency"].status == IMPROVED

    def test_missing_metric_in_report_is_a_regression(self, store):
        metrics = dict(BASE)
        del metrics["checksum"]
        verdicts = verdicts_for(metrics, store)
        assert verdicts["checksum"].status == REGRESSED
        assert "missing from report" in verdicts["checksum"].note

    def test_outcome_gate_flags(self, store):
        good = compare_report(report_with(dict(BASE)), registry_with_toy(), store)
        assert not good.has_regressions
        bad = compare_report(
            report_with({**BASE, "speedup": 0.1}), registry_with_toy(), store
        )
        assert bad.has_regressions
        assert [v.metric for v in bad.regressions] == ["speedup"]
        assert "REGRESSED".lower() in bad.table().lower()


class TestStore:
    def test_no_baseline_yields_new_not_regression(self, tmp_path):
        store = BaselineStore(tmp_path / "empty")
        outcome = compare_report(report_with(dict(BASE)), registry_with_toy(), store)
        assert not outcome.has_regressions
        gated = [v for v in outcome.verdicts if v.status == NEW]
        assert len(gated) == 4  # identity + counter + both ratios
        assert any("no baseline" in note for note in outcome.notes)

    def test_record_writes_one_file_per_benchmark(self, tmp_path):
        store = BaselineStore(tmp_path / "b")
        report = report_with(dict(BASE))
        report.results.append(BenchmarkRecord(benchmark="other", metrics={"x": 1.0}))
        written = store.record(report)
        assert sorted(p.name for p in written) == ["BENCH_other.json", "BENCH_toy.json"]
        assert all(p.parent.name == "smoke" for p in written)
        assert store.load("smoke", "toy").metrics == BASE

    def test_load_missing_returns_none(self, tmp_path):
        assert BaselineStore(tmp_path).load("smoke", "toy") is None

    def test_baseline_in_wrong_scale_directory_is_rejected(self, tmp_path):
        store = BaselineStore(tmp_path / "b")
        store.record(report_with(dict(BASE)))
        wrong = (tmp_path / "b" / "reduced")
        wrong.mkdir()
        (tmp_path / "b" / "smoke" / "BENCH_toy.json").rename(wrong / "BENCH_toy.json")
        with pytest.raises(ReportError, match="recorded at scale"):
            store.load("reduced", "toy")

    def test_unregistered_benchmark_is_skipped_with_note(self, store):
        report = report_with(dict(BASE))
        report.results.append(BenchmarkRecord(benchmark="ghost", metrics={"x": 1.0}))
        outcome = compare_report(report, registry_with_toy(), store)
        assert not outcome.has_regressions
        assert any("unregistered benchmark 'ghost'" in note for note in outcome.notes)
