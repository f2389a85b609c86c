"""CLI smoke: ``run`` / ``compare`` / ``record`` / ``list`` end to end.

``run`` is exercised through the cheapest real benchmark
(``engine-throughput`` at smoke scale with tiny overrides) so the test
drives the actual simulation path without burning minutes; the
compare/record flow then runs entirely on the produced report.
"""

import json

import pytest

from repro.bench.cli import main
from repro.bench.report import BenchReport


@pytest.fixture(scope="module")
def run_report_path(tmp_path_factory):
    """One tiny real run shared by every CLI test of this module."""
    path = tmp_path_factory.mktemp("cli") / "BENCH_smoke.json"
    code = main(
        [
            "run",
            "--filter",
            "engine-throughput",
            "--scale",
            "smoke",
            "--option",
            "nodes=12",
            "--option",
            "windows=2",
            "--quiet",
            "--json",
            str(path),
        ]
    )
    assert code == 0
    return path


class TestRun:
    def test_report_is_valid_and_scoped(self, run_report_path):
        report = BenchReport.load(run_report_path)
        assert report.scale == "smoke"
        assert [r.benchmark for r in report.results] == ["engine-throughput"]
        assert report.results[0].metrics["events_processed"] > 0

    def test_unknown_filter_fails_cleanly(self, capsys):
        assert main(["run", "--filter", "ghost-bench", "--quiet"]) == 2
        assert "no benchmark matches" in capsys.readouterr().err

    def test_bad_option_syntax_fails(self):
        with pytest.raises(SystemExit):
            main(["run", "--option", "nodes", "--quiet"])


class TestCompare:
    def test_fresh_report_against_own_baseline_passes(self, run_report_path, tmp_path, capsys):
        baseline_dir = tmp_path / "baselines"
        assert main(["record", str(run_report_path), "--baseline-dir", str(baseline_dir)]) == 0
        assert (baseline_dir / "smoke" / "BENCH_engine-throughput.json").exists()
        assert (
            main(["compare", str(run_report_path), "--baseline-dir", str(baseline_dir)]) == 0
        )
        assert "no regressions" in capsys.readouterr().out

    def test_injected_regression_exits_nonzero(self, run_report_path, tmp_path, capsys):
        baseline_dir = tmp_path / "baselines"
        main(["record", str(run_report_path), "--baseline-dir", str(baseline_dir)])
        regressed = json.loads(run_report_path.read_text(encoding="utf-8"))
        regressed["results"][0]["metrics"]["events_processed"] += 7
        bad_path = tmp_path / "regressed.json"
        bad_path.write_text(json.dumps(regressed), encoding="utf-8")
        assert main(["compare", str(bad_path), "--baseline-dir", str(baseline_dir)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_no_gate_env_downgrades_to_warning(
        self, run_report_path, tmp_path, capsys, monkeypatch
    ):
        baseline_dir = tmp_path / "baselines"
        main(["record", str(run_report_path), "--baseline-dir", str(baseline_dir)])
        regressed = json.loads(run_report_path.read_text(encoding="utf-8"))
        regressed["results"][0]["metrics"]["events_processed"] += 7
        bad_path = tmp_path / "regressed.json"
        bad_path.write_text(json.dumps(regressed), encoding="utf-8")
        monkeypatch.setenv("REPRO_BENCH_NO_GATE", "1")
        assert main(["compare", str(bad_path), "--baseline-dir", str(baseline_dir)]) == 0
        assert "ignored" in capsys.readouterr().out

    def test_missing_baselines_pass_with_new_verdicts(self, run_report_path, tmp_path, capsys):
        assert (
            main(["compare", str(run_report_path), "--baseline-dir", str(tmp_path / "none")])
            == 0
        )
        out = capsys.readouterr().out
        assert "no baseline for 'engine-throughput'" in out

    def test_malformed_report_fails_with_error(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("[]", encoding="utf-8")
        assert main(["compare", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestCommittedBaselines:
    """The in-repo smoke baselines stay consistent with the registry."""

    def test_every_registered_benchmark_has_a_smoke_baseline(self):
        from repro.bench import default_baseline_root, default_registry

        root = default_baseline_root() / "smoke"
        missing = [
            name
            for name in default_registry().names()
            if not (root / f"BENCH_{name}.json").exists()
        ]
        assert missing == [], f"run `python -m repro.bench run --record-baseline` for {missing}"

    def test_committed_baselines_parse_and_declare_known_metrics(self):
        from repro.bench import default_baseline_root, default_registry

        registry = default_registry()
        root = default_baseline_root() / "smoke"
        for path in sorted(root.glob("BENCH_*.json")):
            report = BenchReport.load(path)
            record = report.single()
            benchmark = registry.get(record.benchmark)
            declared = {metric.name for metric in benchmark.metrics}
            assert set(record.metrics) == declared, path.name

    def test_every_baseline_file_is_a_registered_benchmark_at_its_scale(self):
        """No stale file and no stale key under any scale's baseline directory."""
        from repro.bench import default_baseline_root, default_registry

        registry = default_registry()
        paths = sorted(default_baseline_root().glob("*/BENCH_*.json"))
        assert paths
        for path in paths:
            report = BenchReport.load(path)
            record = report.single()
            assert report.scale == path.parent.name, path
            assert path.name == f"BENCH_{record.benchmark}.json", path
            assert record.benchmark in registry.names(), f"{path}: unregistered benchmark"
            declared = {metric.name for metric in registry.get(record.benchmark).metrics}
            stale = set(record.metrics) - declared
            assert not stale, f"{path}: undeclared metrics {sorted(stale)}"


class TestList:
    def test_list_shows_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("engine-throughput", "figure8", "large-session", "wire"):
            assert name in out

    def test_list_filter(self, capsys):
        assert main(["list", "--filter", "overhead"]) == 0
        out = capsys.readouterr().out
        assert "observer-overhead" in out
        assert "telemetry-overhead" in out
        assert "figure1" not in out

    def test_list_no_match(self, capsys):
        assert main(["list", "--filter", "ghost"]) == 1
