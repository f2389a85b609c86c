"""Executing sweep tasks — serially or on a multiprocess worker pool.

Both executors share one interface: :meth:`map_tasks` takes a scale, a task
list and a :class:`~repro.sweep.summary.MetricsRequest`, and yields
``(task, summary)`` pairs — the serial executor in task order, the parallel
one in **completion order** (so slow tasks never delay the persistence of
fast ones).  Consumers must key on the yielded task, never on position.
The parallel executor ships each task to a ``ProcessPoolExecutor`` worker;
the worker runs the simulation and extracts the summary **worker-side**, so
only compact :class:`~repro.sweep.summary.PointSummary` records cross the
pipe.

Determinism: each task's session derives every random stream from its own
seed through the named-stream registry (:mod:`repro.simulation.rng`), so a
task's result does not depend on which process runs it or in what order —
a ``jobs=4`` sweep is bit-identical to the serial one.

:func:`run_sweep` is the driver used by the CLI and the ablations: it
dedupes tasks, reuses completed cells from a
:class:`~repro.sweep.store.ResultStore` when resuming, executes the rest,
and appends every fresh result to the store as soon as it completes (which
is what makes an interrupted sweep resumable).
"""

from __future__ import annotations

import dataclasses
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.session import SessionConfig, SessionResult, run_session
from repro.experiments.runner import point_config
from repro.experiments.scale import ExperimentScale
from repro.telemetry.config import TelemetryConfig

from repro.sweep.spec import ConfigPatch, SweepTask, dedupe_tasks
from repro.sweep.store import ResultStore, run_fingerprint
from repro.sweep.summary import MetricsRequest, PointSummary, summarize

TaskResult = Tuple[SweepTask, PointSummary]


def apply_patch(config: SessionConfig, patch: ConfigPatch) -> SessionConfig:
    """Apply dotted-path overrides to a session config, immutably.

    ``("gossip.source_fanout", 3)`` replaces the nested gossip config;
    ``("failure_detection_delay", 2.0)`` replaces a top-level field.  Only
    one level of nesting exists in :class:`SessionConfig`, so paths have at
    most two components.
    """
    for path, value in patch:
        head, _, rest = path.partition(".")
        if not hasattr(config, head):
            raise ValueError(f"config patch path {path!r} does not exist")
        if rest:
            nested = getattr(config, head)
            if not hasattr(nested, rest):
                raise ValueError(f"config patch path {path!r} does not exist")
            value = dataclasses.replace(nested, **{rest: value})
        config = dataclasses.replace(config, **{head: value})
    return config


def run_task(
    scale: ExperimentScale,
    task: SweepTask,
    telemetry: Optional[TelemetryConfig] = None,
) -> SessionResult:
    """Run one task's full session (point knobs, then the config patch).

    ``telemetry`` arms the session's telemetry layer for this run; it is
    applied after the patch so a sweep-wide metrics request cannot be
    silently overridden by a per-task patch.
    """
    config = point_config(scale, task.point)
    if task.patch:
        config = apply_patch(config, task.patch)
    if telemetry is not None:
        config = dataclasses.replace(config, telemetry=telemetry)
    return run_session(config)


def compute_summary(
    scale: ExperimentScale,
    task: SweepTask,
    request: MetricsRequest,
) -> PointSummary:
    """Run one task and reduce it to its summary (the unit of worker work)."""
    started = time.perf_counter()
    telemetry = TelemetryConfig(metrics=True) if request.include_metrics else None
    result = run_task(scale, task, telemetry=telemetry)
    return summarize(
        result,
        request,
        cell_id=task.cell_id,
        seed=scale.seed + task.point.seed_offset,
        wall_seconds=time.perf_counter() - started,
    )


def _worker(args: Tuple[ExperimentScale, SweepTask, MetricsRequest]) -> TaskResult:
    scale, task, request = args
    return task, compute_summary(scale, task, request)


class SerialExecutor:
    """Runs every task in the calling process, one after another."""

    jobs = 1

    def map_tasks(
        self,
        scale: ExperimentScale,
        tasks: Sequence[SweepTask],
        request: MetricsRequest,
    ) -> Iterator[TaskResult]:
        """Yield ``(task, summary)`` for each task, in order."""
        for task in tasks:
            yield task, compute_summary(scale, task, request)


class ParallelExecutor:
    """Runs tasks on a :class:`ProcessPoolExecutor` of ``jobs`` workers.

    Results are yielded in **completion order**, so a slow task never delays
    the persistence of faster ones — killing a sweep loses only the points
    actually in flight.  Each result carries its task, and every consumer
    keys on the task (result stores, caches, aggregation), so completion
    order does not affect any output.
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs!r}")
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)

    def map_tasks(
        self,
        scale: ExperimentScale,
        tasks: Sequence[SweepTask],
        request: MetricsRequest,
    ) -> Iterator[TaskResult]:
        """Yield ``(task, summary)`` for each task, as they complete."""
        if not tasks:
            return
        with ProcessPoolExecutor(max_workers=self.jobs) as pool:
            futures = [pool.submit(_worker, (scale, task, request)) for task in tasks]
            for future in as_completed(futures):
                yield future.result()


def make_executor(jobs: int):
    """``jobs == 1`` → :class:`SerialExecutor`; else a pool of ``jobs``."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs!r}")
    if jobs == 1:
        return SerialExecutor()
    return ParallelExecutor(jobs=jobs)


@dataclass
class SweepOutcome:
    """What a sweep run did: its results plus execute/reuse accounting."""

    results: Dict[SweepTask, PointSummary]
    executed: int
    reused: int

    def summaries(self, tasks: Iterable[SweepTask]) -> List[PointSummary]:
        """Summaries for ``tasks``, in the given order."""
        return [self.results[task] for task in tasks]


def run_sweep(
    scale: ExperimentScale,
    tasks: Sequence[SweepTask],
    executor=None,
    store: Optional[ResultStore] = None,
    resume: bool = False,
    request: Optional[MetricsRequest] = None,
    progress: Optional[Callable[[SweepTask, PointSummary], None]] = None,
) -> SweepOutcome:
    """Execute a task list, reusing and persisting through ``store``.

    With ``resume=True`` (requires a store), tasks whose (cell id, seed,
    code fingerprint) already have a stored record are not re-run.  Every
    freshly executed task is appended to the store the moment it completes,
    so killing the process mid-sweep loses at most the in-flight points.
    """
    if resume and store is None:
        raise ValueError("resume=True requires a result store")
    executor = executor if executor is not None else SerialExecutor()
    request = request if request is not None else MetricsRequest.for_scale(scale)
    fingerprint = run_fingerprint(scale)

    unique = dedupe_tasks(list(tasks))
    results: Dict[SweepTask, PointSummary] = {}
    pending: List[SweepTask] = []
    for task in unique:
        seed = scale.seed + task.point.seed_offset
        cached = (
            store.get(task.cell_id, seed, fingerprint)
            if resume and store is not None
            else None
        )
        if cached is not None:
            results[task] = cached
        else:
            pending.append(task)
    reused = len(results)

    for task, summary in executor.map_tasks(scale, pending, request):
        results[task] = summary
        if store is not None:
            store.append(task.cell_id, summary.seed, fingerprint, summary)
        if progress is not None:
            progress(task, summary)

    return SweepOutcome(results=results, executed=len(pending), reused=reused)
