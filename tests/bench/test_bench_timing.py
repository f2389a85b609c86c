"""The in-benchmark timing helpers: best-of-N and the interleaved slowdowns."""

from types import SimpleNamespace

import pytest

from repro.bench import suite
from repro.bench.runner import run_benchmark
from repro.bench.spec import BenchContext, default_registry
from repro.bench.suite import TIMING_ROUNDS, best_seconds, slowdowns


def fake_clock(monkeypatch, durations):
    """Make ``suite``'s ``perf_counter`` advance by each duration in turn."""
    ticks = [0.0]
    for duration in durations:
        ticks += [ticks[-1], ticks[-1] + duration]
    readings = iter(ticks[1:])
    monkeypatch.setattr(suite, "time", SimpleNamespace(perf_counter=lambda: next(readings)))


def quiet() -> BenchContext:
    return BenchContext("smoke", verbose=False)


class TestBestSeconds:
    def test_keeps_the_fastest_round_and_runs_each_round_once(self, monkeypatch):
        durations = [3.0 + round_ for round_ in range(TIMING_ROUNDS)]
        durations[TIMING_ROUNDS // 2] = 0.5
        fake_clock(monkeypatch, durations)
        calls = []
        seconds, output = best_seconds(lambda: calls.append(None) or len(calls))
        assert seconds == 0.5
        assert len(calls) == TIMING_ROUNDS
        assert output == TIMING_ROUNDS


class TestSlowdowns:
    def test_modes_are_interleaved_round_by_round(self):
        order = []

        def run_mode(mode):
            order.append(mode)
            return SimpleNamespace(events_processed=100), 1.0

        slowdowns(("plain", "a", "b"), run_mode, quiet())
        assert order == ["plain", "a", "b"] * TIMING_ROUNDS

    def test_ratio_is_plain_best_rate_over_each_modes_best_rate(self):
        # Every mode's fastest round is its second; only the fastest counts.
        fastest = {"plain": 1.0, "armed": 2.0, "twice": 4.0}
        rounds = {mode: 0 for mode in fastest}

        def run_mode(mode):
            rounds[mode] += 1
            seconds = fastest[mode] if rounds[mode] == 2 else 10.0 * fastest[mode]
            return SimpleNamespace(events_processed=500), seconds

        ratios, results = slowdowns(tuple(fastest), run_mode, quiet())
        assert ratios == {"armed": pytest.approx(2.0), "twice": pytest.approx(4.0)}
        assert set(results) == set(fastest)

    def test_a_mode_that_changes_the_event_count_is_rejected(self):
        def run_mode(mode):
            return SimpleNamespace(events_processed=100 if mode == "plain" else 101), 1.0

        with pytest.raises(AssertionError, match="observation must be pure"):
            slowdowns(("plain", "observed"), run_mode, quiet())


class TestOverheadBenchmarks:
    @pytest.mark.parametrize(
        "name, slowdown_keys",
        [
            ("observer-overhead", {"noop_slowdown", "invariants_slowdown"}),
            ("telemetry-overhead", {"idle_slowdown", "metrics_slowdown", "trace_slowdown"}),
        ],
    )
    def test_overheads_are_lower_is_better_ratios(self, name, slowdown_keys):
        (benchmark,) = default_registry().select([name])
        ratios = {m.name for m in benchmark.metrics if m.kind == "ratio"}
        assert slowdown_keys <= ratios
        assert all(not benchmark.metric(key).higher_is_better for key in slowdown_keys)

    def test_observer_overhead_reports_positive_slowdowns(self):
        (benchmark,) = default_registry().select(["observer-overhead"])
        ctx = BenchContext("smoke", options={"nodes": "8", "windows": "2"}, verbose=False)
        metrics = run_benchmark(benchmark, ctx).metrics
        assert metrics["events_processed"] > 0
        assert metrics["noop_slowdown"] > 0
        assert metrics["invariants_slowdown"] > 0
