"""Report schema: round-trips, validation, fingerprint and host hints."""

import json

import pytest

from repro.bench.report import (
    SCHEMA,
    BenchmarkRecord,
    BenchReport,
    ReportError,
    current_fingerprint,
    host_hints,
)
from repro.sweep import code_fingerprint


def sample_report() -> BenchReport:
    return BenchReport(
        scale="smoke",
        fingerprint="abcd1234abcd1234",
        results=[
            BenchmarkRecord(
                benchmark="engine-throughput",
                metrics={"events_processed": 10280.0, "frames_per_event": 12.830739299610894},
                wall_seconds=0.25,
            ),
            BenchmarkRecord(
                benchmark="figure1",
                metrics={"table_checksum": 246641906086627.0, "headline": 96.55172413793103},
            ),
        ],
    )


class TestRoundTrip:
    def test_dict_round_trip_preserves_metrics_exactly(self):
        report = sample_report()
        rebuilt = BenchReport.from_json_dict(report.to_json_dict())
        assert rebuilt.scale == report.scale
        assert rebuilt.fingerprint == report.fingerprint
        assert [r.benchmark for r in rebuilt.results] == [r.benchmark for r in report.results]
        for mine, theirs in zip(report.results, rebuilt.results):
            # Floats must survive bit-for-bit: the comparison gate relies on
            # exact equality for identity metrics.
            assert mine.metrics == theirs.metrics

    def test_file_round_trip(self, tmp_path):
        report = sample_report()
        path = report.write(tmp_path / "deep" / "BENCH_x.json")
        assert path.exists()
        rebuilt = BenchReport.load(path)
        assert rebuilt.to_json_dict() == report.to_json_dict()

    def test_old_report_with_repeats_still_loads(self):
        data = sample_report().to_json_dict()
        data["results"][0]["repeats"] = 5
        rebuilt = BenchReport.from_json_dict(data)
        assert rebuilt.results[0].metrics == sample_report().results[0].metrics

    def test_schema_field_is_versioned(self):
        data = sample_report().to_json_dict()
        assert data["schema"] == SCHEMA == "repro.bench/1"


class TestValidation:
    def test_unknown_schema_version_is_rejected(self):
        data = sample_report().to_json_dict()
        data["schema"] = "repro.bench/99"
        with pytest.raises(ReportError, match="unsupported report schema"):
            BenchReport.from_json_dict(data)

    def test_missing_fields_are_rejected(self):
        data = sample_report().to_json_dict()
        del data["results"]
        with pytest.raises(ReportError):
            BenchReport.from_json_dict(data)

    def test_malformed_record_is_rejected(self):
        data = sample_report().to_json_dict()
        del data["results"][0]["metrics"]
        with pytest.raises(ReportError, match="malformed benchmark record"):
            BenchReport.from_json_dict(data)

    def test_non_json_file_is_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ReportError, match="not valid JSON"):
            BenchReport.load(path)

    def test_missing_file_is_rejected(self, tmp_path):
        with pytest.raises(ReportError, match="no report at"):
            BenchReport.load(tmp_path / "absent.json")

    def test_single_requires_exactly_one_record(self):
        with pytest.raises(ReportError, match="single-benchmark"):
            sample_report().single()


class TestContext:
    def test_fingerprint_reuses_the_sweep_hash(self):
        assert current_fingerprint() == code_fingerprint()

    def test_host_hints_carry_interpretation_context(self):
        hints = host_hints()
        assert set(hints) == {"cpu_count", "platform", "python"}
        assert hints["cpu_count"] >= 1

    def test_written_json_is_plain_and_sorted(self, tmp_path):
        path = sample_report().write(tmp_path / "r.json")
        data = json.loads(path.read_text(encoding="utf-8"))
        metrics = data["results"][0]["metrics"]
        assert list(metrics) == sorted(metrics)
