"""Tests for the executors: patches, determinism, resume accounting.

The headline guarantee lives in ``test_parallel_matches_serial_exactly``: a
4-worker sweep must produce byte-identical aggregate tables to the serial
path for the same seeds.
"""

import pytest

from repro.core.session import SessionConfig
from repro.experiments.runner import ExperimentPoint
from repro.sweep.stats import aggregate, aggregate_table
from repro.sweep.executor import (
    ParallelExecutor,
    SerialExecutor,
    apply_patch,
    make_executor,
    run_sweep,
    run_task,
)
from repro.sweep.spec import SweepGrid, SweepSpec, SweepTask
from repro.sweep.store import ResultStore


def _spec(scale, **overrides):
    options = dict(
        name="test-sweep",
        scale_name=scale.name,
        grid=SweepGrid(fanouts=(2, 4, 6)),
        replicas=2,
    )
    options.update(overrides)
    return SweepSpec(**options)


class TestApplyPatch:
    def test_nested_patch_replaces_sub_config(self):
        config = SessionConfig()
        patched = apply_patch(config, (("gossip.source_fanout", 3),))
        assert patched.gossip.source_fanout == 3
        assert config.gossip.source_fanout != 3  # original untouched

    def test_top_level_patch(self):
        config = SessionConfig()
        patched = apply_patch(config, (("failure_detection_delay", 2.5),))
        assert patched.failure_detection_delay == 2.5

    def test_unknown_path_rejected(self):
        with pytest.raises(ValueError):
            apply_patch(SessionConfig(), (("gossip.no_such_knob", 1),))
        with pytest.raises(ValueError):
            apply_patch(SessionConfig(), (("no_such_section.x", 1),))


class TestRunTask:
    def test_scale_mismatch_rejected(self, sweep_scale):
        task = SweepTask(point=ExperimentPoint(scale_name="reduced"))
        with pytest.raises(ValueError):
            run_task(sweep_scale, task)

    def test_patched_task_differs_from_unpatched(self, sweep_scale):
        plain = SweepTask(point=ExperimentPoint(scale_name=sweep_scale.name))
        patched = SweepTask(
            point=ExperimentPoint(scale_name=sweep_scale.name),
            patch=(("gossip.source_fanout", 1),),
        )
        plain_result = run_task(sweep_scale, plain)
        patched_result = run_task(sweep_scale, patched)
        assert plain_result.config.gossip.source_fanout != 1
        assert patched_result.config.gossip.source_fanout == 1


class TestMakeExecutor:
    def test_one_job_is_serial(self):
        assert isinstance(make_executor(1), SerialExecutor)

    def test_many_jobs_is_parallel(self):
        executor = make_executor(3)
        assert isinstance(executor, ParallelExecutor)
        assert executor.jobs == 3

    def test_zero_jobs_rejected(self):
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=0)
        with pytest.raises(ValueError):
            make_executor(0)


class TestDeterminism:
    def test_parallel_matches_serial_exactly(self, sweep_scale):
        """A 4-worker sweep is byte-identical to the serial one (same seeds)."""
        tasks = _spec(sweep_scale).expand()
        serial = run_sweep(sweep_scale, tasks, executor=SerialExecutor())
        parallel = run_sweep(sweep_scale, tasks, executor=ParallelExecutor(jobs=4))

        assert serial.results == parallel.results
        serial_table = aggregate_table(aggregate(serial.results))
        parallel_table = aggregate_table(aggregate(parallel.results))
        assert serial_table == parallel_table

    def test_results_keyed_by_task_in_order(self, sweep_scale):
        tasks = _spec(sweep_scale, replicas=1).expand()
        outcome = run_sweep(sweep_scale, tasks, executor=SerialExecutor())
        assert list(outcome.results) == tasks
        assert len(outcome.summaries(tasks)) == len(tasks)


class TestResume:
    def test_interrupted_sweep_resumes_missing_cells_only(self, sweep_scale, tmp_path):
        path = tmp_path / "sweep.jsonl"
        tasks = _spec(sweep_scale, replicas=1).expand()

        # "Crash" after two points: only a prefix reaches the store.
        first = run_sweep(
            sweep_scale, tasks[:2], executor=SerialExecutor(), store=ResultStore(path)
        )
        assert first.executed == 2

        # A fresh process resumes: completed cells come from the store.
        resumed = run_sweep(
            sweep_scale,
            tasks,
            executor=SerialExecutor(),
            store=ResultStore(path),
            resume=True,
        )
        assert resumed.reused == 2
        assert resumed.executed == len(tasks) - 2

        # And the resumed sweep's table equals an uninterrupted run's.
        uninterrupted = run_sweep(sweep_scale, tasks, executor=SerialExecutor())
        assert aggregate_table(aggregate(resumed.results)) == aggregate_table(
            aggregate(uninterrupted.results)
        )

    def test_resume_requires_store(self, sweep_scale):
        with pytest.raises(ValueError):
            run_sweep(sweep_scale, [], resume=True)

    def test_resume_rejects_results_from_a_different_scale(self, sweep_scale, tmp_path):
        """Same scale *name*, different contents → stored results are a miss."""
        import dataclasses

        path = tmp_path / "sweep.jsonl"
        tasks = [SweepTask(point=ExperimentPoint(scale_name=sweep_scale.name, fanout=4))]
        run_sweep(sweep_scale, tasks, executor=SerialExecutor(), store=ResultStore(path))

        impostor = dataclasses.replace(sweep_scale, num_nodes=sweep_scale.num_nodes + 4)
        resumed = run_sweep(
            impostor,
            tasks,
            executor=SerialExecutor(),
            store=ResultStore(path),
            resume=True,
        )
        assert resumed.reused == 0
        assert resumed.executed == 1

    def test_duplicate_tasks_run_once(self, sweep_scale):
        task = SweepTask(point=ExperimentPoint(scale_name=sweep_scale.name, fanout=4))
        outcome = run_sweep(sweep_scale, [task, task, task], executor=SerialExecutor())
        assert outcome.executed == 1
        assert len(outcome.results) == 1

    def test_progress_callback_sees_every_executed_task(self, sweep_scale):
        tasks = _spec(sweep_scale, replicas=1, grid=SweepGrid(fanouts=(2, 4))).expand()
        seen = []
        run_sweep(
            sweep_scale,
            tasks,
            executor=SerialExecutor(),
            progress=lambda task, summary: seen.append(task),
        )
        assert seen == tasks
