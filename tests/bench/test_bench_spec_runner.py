"""Benchmark specs, registry selection, and the run-once harness."""

import pytest

from repro.bench.report import BenchReport
from repro.bench.runner import BenchmarkRunError, run_benchmark, run_selected
from repro.bench.spec import Benchmark, BenchContext, BenchmarkRegistry, Metric


def counting_benchmark(samples, name="count", **kwargs) -> Benchmark:
    """Returns the next dict from ``samples`` on every run call."""
    iterator = iter(samples)
    return Benchmark(
        name=name,
        description="synthetic",
        run=lambda ctx: next(iterator),
        metrics=(
            Metric("det", kind="identity"),
            Metric("speedup", kind="ratio"),
        ),
        **kwargs,
    )


class TestMetricSpec:
    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown metric kind"):
            Metric("x", kind="wallclock")

    def test_wall_clock_kinds_are_gone(self):
        with pytest.raises(ValueError, match="unknown metric kind"):
            Metric("events_per_second", kind="rate")
        with pytest.raises(ValueError, match="unknown metric kind"):
            Metric("jobs", kind="info")

    def test_default_bands(self):
        assert Metric("a", kind="identity").band == 0.0
        assert Metric("a", kind="counter").band == 0.0
        assert Metric("a", kind="ratio").band == 0.5
        assert Metric("a", kind="ratio", tolerance=0.25).band == 0.25


class TestRegistry:
    def test_duplicate_names_are_rejected(self):
        registry = BenchmarkRegistry()
        registry.register(counting_benchmark([{}]))
        with pytest.raises(ValueError, match="already registered"):
            registry.register(counting_benchmark([{}]))

    def test_selection_matches_name_and_tags(self):
        registry = BenchmarkRegistry()
        registry.register(counting_benchmark([{}], name="alpha-engine", tags=("hot",)))
        registry.register(counting_benchmark([{}], name="beta", tags=("figures",)))
        assert [b.name for b in registry.select(["engine"])] == ["alpha-engine"]
        assert [b.name for b in registry.select(["figures"])] == ["beta"]
        assert [b.name for b in registry.select(["hot", "beta"])] == ["alpha-engine", "beta"]
        assert len(registry.select([])) == 2
        assert registry.select(["nothing"]) == []

    def test_comma_separated_patterns_union(self):
        registry = BenchmarkRegistry()
        registry.register(counting_benchmark([{}], name="alpha-engine", tags=("hot",)))
        registry.register(counting_benchmark([{}], name="beta", tags=("figures",)))
        registry.register(counting_benchmark([{}], name="gamma", tags=()))
        assert [b.name for b in registry.select(["engine,beta"])] == ["alpha-engine", "beta"]
        # Whitespace around commas is forgiven; empty fragments are ignored.
        assert [b.name for b in registry.select([" engine , gamma ,"])] == [
            "alpha-engine",
            "gamma",
        ]

    def test_tag_prefix_matches_tags_exactly(self):
        registry = BenchmarkRegistry()
        registry.register(counting_benchmark([{}], name="figure-ish", tags=("other",)))
        registry.register(counting_benchmark([{}], name="real", tags=("figure",)))
        registry.register(counting_benchmark([{}], name="wide", tags=("figure-wide",)))
        # Plain substring catches all three; tag: catches only the exact tag.
        assert len(registry.select(["figure"])) == 3
        assert [b.name for b in registry.select(["tag:figure"])] == ["real"]
        assert [b.name for b in registry.select(["tag:figure,wide"])] == ["real", "wide"]

    def test_default_suite_registers_all_fourteen(self):
        from repro.bench import default_registry

        names = default_registry().names()
        assert len(names) == 14
        assert names[:3] == [
            "engine-throughput",
            "observer-overhead",
            "telemetry-overhead",
        ]
        assert [f"figure{i}" for i in range(1, 9)] == names[3:11]
        assert names[11:] == [
            "large-session",
            "sharded-session",
            "wire",
        ]


class TestHarness:
    def test_undeclared_metric_is_rejected(self):
        benchmark = counting_benchmark([{"det": 1.0, "speedup": 1.0, "x": 1.0}])
        with pytest.raises(BenchmarkRunError, match="undeclared"):
            run_benchmark(benchmark, BenchContext("smoke", verbose=False))

    def test_omitted_metric_is_rejected(self):
        benchmark = counting_benchmark([{"det": 1.0}])
        with pytest.raises(BenchmarkRunError, match="omitted"):
            run_benchmark(benchmark, BenchContext("smoke", verbose=False))

    def test_profile_dir_writes_loadable_pstats(self, tmp_path):
        import pstats

        benchmark = counting_benchmark([{"det": 1.0, "speedup": 1.0}])
        record = run_benchmark(
            benchmark, BenchContext("smoke", verbose=False), profile_dir=str(tmp_path)
        )
        assert record.metrics["det"] == 1.0
        stats_path = tmp_path / "PROFILE_count.pstats"
        assert stats_path.exists()
        pstats.Stats(str(stats_path))  # parses as a valid profile dump

    def test_no_profile_by_default(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        benchmark = counting_benchmark([{"det": 1.0, "speedup": 1.0}])
        run_benchmark(benchmark, BenchContext("smoke", verbose=False))
        assert list(tmp_path.rglob("*.pstats")) == []


class TestRunSelected:
    def test_unknown_filter_raises(self):
        registry = BenchmarkRegistry()
        registry.register(counting_benchmark([{}]))
        with pytest.raises(KeyError, match="no benchmark matches"):
            run_selected(registry, patterns=["ghost"], verbose=False)

    def test_report_carries_scale_and_fingerprint(self):
        from repro.sweep import code_fingerprint

        registry = BenchmarkRegistry()
        registry.register(counting_benchmark([{"det": 1.0, "speedup": 1.0}]))
        report = run_selected(registry, scale_name="smoke", verbose=False)
        assert isinstance(report, BenchReport)
        assert report.scale == "smoke"
        assert report.fingerprint == code_fingerprint()
        assert report.results[0].benchmark == "count"

    def test_each_selected_benchmark_runs_exactly_once(self):
        calls = []

        def once(name):
            def run(ctx):
                calls.append(name)
                return {"det": 1.0, "speedup": 2.0}

            return Benchmark(
                name=name,
                description="synthetic",
                run=run,
                metrics=counting_benchmark([]).metrics,
            )

        registry = BenchmarkRegistry()
        for name in ("alpha", "beta", "gamma"):
            registry.register(once(name))
        report = run_selected(registry, patterns=["alpha,gamma"], verbose=False)
        assert calls == ["alpha", "gamma"]
        assert [r.metrics for r in report.results] == [{"det": 1.0, "speedup": 2.0}] * 2


class TestContextOptions:
    def test_option_int_parses_and_defaults(self):
        ctx = BenchContext("smoke", options={"nodes": "25"})
        assert ctx.option_int("nodes", 40) == 25
        assert ctx.option_int("windows", 7) == 7
        assert ctx.option_int("windows") is None

    def test_summary_cache_is_lazily_shared(self):
        ctx = BenchContext("smoke")
        assert ctx.cache is None
        cache = ctx.summary_cache()
        assert ctx.summary_cache() is cache
