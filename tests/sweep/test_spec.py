"""Tests for sweep grids, specs, tasks and cell ids."""

import pytest

from repro.experiments.runner import ExperimentPoint
from repro.membership.partners import INFINITE
from repro.sweep.spec import SweepGrid, SweepSpec, SweepTask, dedupe_tasks


class TestSweepGrid:
    def test_default_grid_is_one_cell(self):
        grid = SweepGrid()
        assert len(grid) == 1
        points = list(grid.cells("smoke"))
        assert points == [ExperimentPoint(scale_name="smoke")]

    def test_cross_product_size(self):
        grid = SweepGrid(fanouts=(4, 7), caps_kbps=(None, 2000.0), churn_fractions=(0.0, 0.2, 0.5))
        assert len(grid) == 12
        assert len(list(grid.cells("smoke"))) == 12

    def test_cells_order_is_deterministic(self):
        grid = SweepGrid(fanouts=(4, 7), refresh_values=(1, INFINITE))
        first = list(grid.cells("smoke"))
        second = list(grid.cells("smoke"))
        assert first == second

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            SweepGrid(fanouts=())


class TestSweepSpec:
    def test_expand_replicates_over_seeds(self):
        spec = SweepSpec(
            name="s", scale_name="smoke", grid=SweepGrid(fanouts=(4, 7)), replicas=3
        )
        tasks = spec.expand()
        assert len(tasks) == len(spec) == 6
        offsets = sorted({task.point.seed_offset for task in tasks})
        assert offsets == [0, 1, 2]
        # Replicas of a cell share the cell id.
        by_cell = {}
        for task in tasks:
            by_cell.setdefault(task.cell_id, []).append(task)
        assert all(len(replicas) == 3 for replicas in by_cell.values())
        assert len(by_cell) == 2

    def test_base_seed_offset_shifts_replicas(self):
        spec = SweepSpec(name="s", scale_name="smoke", replicas=2, base_seed_offset=10)
        offsets = [task.point.seed_offset for task in spec.expand()]
        assert offsets == [10, 11]

    def test_zero_replicas_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(name="s", scale_name="smoke", replicas=0)


class TestCellIds:
    def test_cell_id_is_stable_and_excludes_seed(self):
        base = ExperimentPoint(scale_name="smoke", fanout=7)
        replica = ExperimentPoint(scale_name="smoke", fanout=7, seed_offset=3)
        assert SweepTask(point=base).cell_id == SweepTask(point=replica).cell_id

    def test_cell_id_distinguishes_every_axis(self):
        base = SweepTask(point=ExperimentPoint(scale_name="smoke"))
        variants = [
            SweepTask(point=ExperimentPoint(scale_name="reduced")),
            SweepTask(point=ExperimentPoint(scale_name="smoke", fanout=9)),
            SweepTask(point=ExperimentPoint(scale_name="smoke", cap_kbps=2000.0)),
            SweepTask(point=ExperimentPoint(scale_name="smoke", refresh_every=2)),
            SweepTask(point=ExperimentPoint(scale_name="smoke", feed_me_every=5)),
            SweepTask(point=ExperimentPoint(scale_name="smoke", churn_fraction=0.2)),
            SweepTask(point=ExperimentPoint(scale_name="smoke", protocol="eager-push")),
            SweepTask(point=ExperimentPoint(scale_name="smoke"), patch=(("gossip.source_fanout", 3),)),
        ]
        ids = {task.cell_id for task in variants}
        assert base.cell_id not in ids
        assert len(ids) == len(variants)

    def test_fractional_rates_render_honestly(self):
        task = SweepTask(point=ExperimentPoint(scale_name="smoke", refresh_every=0.5))
        assert "X=0.5" in task.cell_id

    def test_infinite_rates_render_as_inf(self):
        task = SweepTask(
            point=ExperimentPoint(scale_name="smoke", refresh_every=INFINITE)
        )
        assert "X=inf" in task.cell_id


class TestDedupe:
    def test_dedupe_preserves_first_seen_order(self):
        a = SweepTask(point=ExperimentPoint(scale_name="smoke", fanout=4))
        b = SweepTask(point=ExperimentPoint(scale_name="smoke", fanout=7))
        assert dedupe_tasks([a, b, a, b, a]) == [a, b]
