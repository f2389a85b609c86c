"""Executes registered benchmarks and assembles the unified report.

Each selected benchmark's ``run`` is called exactly once and must return
exactly the metrics it declares.  Deterministic metrics need no repeat, and a
benchmark that times something takes its own best-of-N over the same data
(see :mod:`repro.bench.suite`).
"""

from __future__ import annotations

import cProfile
import pstats
import time
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence

from repro.bench.report import BenchmarkRecord, BenchReport, current_fingerprint
from repro.bench.spec import Benchmark, BenchContext, BenchmarkRegistry

DEFAULT_PROFILE_DIR = "benchmarks/results"
"""Where ``run --profile`` drops its per-benchmark pstats files."""

PROFILE_SORTS = ("cumulative", "tottime")
"""Sort keys ``--profile-sort`` accepts for the inline hot-path summary."""

PROFILE_TOP_LINES = 12
"""How many pstats rows the inline summary prints per benchmark."""


class BenchmarkRunError(RuntimeError):
    """A benchmark violated its own declared contract while running."""


class BenchmarkSelectionError(KeyError):
    """No registered benchmark matches the requested filter."""

    def __str__(self) -> str:  # KeyError quotes its message; keep it readable
        return self.args[0] if self.args else "no benchmark selected"


def _checked_metrics(benchmark: Benchmark, sample: Mapping[str, float]) -> Dict[str, float]:
    """``sample`` as floats, once it reports exactly the declared metrics."""
    declared = {metric.name for metric in benchmark.metrics}
    extra = set(sample) - declared
    if extra:
        raise BenchmarkRunError(
            f"benchmark {benchmark.name!r} reported undeclared metrics: {sorted(extra)}"
        )
    missing = declared - set(sample)
    if missing:
        raise BenchmarkRunError(f"benchmark {benchmark.name!r} omitted metrics: {sorted(missing)}")
    return {name: float(value) for name, value in sample.items()}


def run_benchmark(
    benchmark: Benchmark,
    ctx: BenchContext,
    profile_dir: Optional[str] = None,
    profile_sort: str = "cumulative",
) -> BenchmarkRecord:
    """Run one benchmark once and check it into one record.

    With ``profile_dir`` set, the run executes under :mod:`cProfile` and
    the stats are written to ``<profile_dir>/PROFILE_<name>.pstats`` —
    load them with ``pstats.Stats`` or ``snakeviz`` to find the hot path.
    The dump path and a short hot-path summary (top rows sorted by
    ``profile_sort``) are printed unconditionally, ``--quiet`` included: a
    profiling run's whole point is that output.  Profiling slows the run
    unevenly, so the record's ``ratio`` metrics are not comparable to
    unprofiled baselines; gate runs never profile.
    """
    if profile_sort not in PROFILE_SORTS:
        raise BenchmarkRunError(
            f"unknown profile sort {profile_sort!r}; expected one of {PROFILE_SORTS}"
        )
    profiler = cProfile.Profile() if profile_dir is not None else None
    started = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    sample = benchmark.run(ctx)
    if profiler is not None:
        profiler.disable()
    wall_seconds = time.perf_counter() - started
    if profiler is not None:
        directory = Path(profile_dir)
        directory.mkdir(parents=True, exist_ok=True)
        stats_path = directory / f"PROFILE_{benchmark.name}.pstats"
        profiler.dump_stats(stats_path)
        print(f"    profile written to {stats_path}")
        stats = pstats.Stats(profiler)
        stats.sort_stats(profile_sort).print_stats(PROFILE_TOP_LINES)
    record = BenchmarkRecord(
        benchmark=benchmark.name,
        metrics=_checked_metrics(benchmark, sample),
        wall_seconds=wall_seconds,
    )
    if benchmark.drop_cache_after and ctx.cache is not None:
        ctx.cache.clear()
    return record


def run_selected(
    registry: BenchmarkRegistry,
    patterns: Sequence[str] = (),
    scale_name: str = "smoke",
    options: Optional[Dict[str, str]] = None,
    verbose: bool = True,
    profile_dir: Optional[str] = None,
    profile_sort: str = "cumulative",
) -> BenchReport:
    """Run every benchmark matching ``patterns`` and build one report."""
    selected = registry.select(patterns)
    if not selected:
        raise BenchmarkSelectionError(
            f"no benchmark matches {list(patterns)!r}; registered: {', '.join(registry.names())}"
        )
    ctx = BenchContext(scale_name=scale_name, options=dict(options or {}), verbose=verbose)
    report = BenchReport(scale=scale_name, fingerprint=current_fingerprint())
    for benchmark in selected:
        ctx.log(f"[{benchmark.name}] {benchmark.description} (scale={scale_name})")
        record = run_benchmark(
            benchmark, ctx, profile_dir=profile_dir, profile_sort=profile_sort
        )
        for name in sorted(record.metrics):
            ctx.log(f"    {name} = {record.metrics[name]:,.6g}")
        ctx.log(f"    ({record.wall_seconds:.2f}s)")
        report.results.append(record)
    return report
