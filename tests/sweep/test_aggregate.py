"""Tests for replica aggregation (mean/stdev/CI) and table rendering."""

import math

import pytest

from repro.experiments.runner import ExperimentPoint
from repro.sweep.stats import Stat, aggregate, aggregate_table, stat_of, t_quantile_975
from repro.sweep.spec import SweepTask
from repro.sweep.summary import PointSummary


def _summary(seed: int, viewing: float, delivery: float = 0.9) -> PointSummary:
    return PointSummary(
        cell_id="unused",
        seed=seed,
        viewing=((20.0, viewing), (math.inf, viewing + 5.0)),
        complete_windows=((20.0, viewing - 1.0),),
        delivery_ratio=delivery,
    )


def _results(cell_values):
    """Build a results mapping: {fanout: [replica viewing values]}."""
    results = {}
    for fanout, values in cell_values.items():
        for offset, value in enumerate(values):
            point = ExperimentPoint(scale_name="smoke", fanout=fanout, seed_offset=offset)
            results[SweepTask(point=point)] = _summary(42 + offset, value)
    return results


class TestStatOf:
    def test_single_value_has_no_spread(self):
        stat = stat_of([80.0])
        assert stat == Stat(mean=80.0, stdev=0.0, ci95=0.0, n=1)
        assert str(stat) == "80.00"

    def test_mean_stdev_and_ci(self):
        stat = stat_of([10.0, 20.0, 30.0])
        assert stat.mean == pytest.approx(20.0)
        assert stat.stdev == pytest.approx(10.0)
        # Small samples use the Student-t quantile (df = 2 → 4.303), not z.
        assert stat.ci95 == pytest.approx(4.303 * 10.0 / math.sqrt(3))
        assert "±" in str(stat)

    def test_t_quantile_shrinks_toward_z(self):
        assert t_quantile_975(1) == pytest.approx(12.706)
        assert t_quantile_975(4) == pytest.approx(2.776)
        assert t_quantile_975(200) == pytest.approx(1.96)
        with pytest.raises(ValueError):
            t_quantile_975(0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stat_of([])


class TestAggregate:
    def test_groups_replicas_by_cell(self):
        results = _results({4: [70.0, 80.0], 7: [90.0, 92.0]})
        cells = aggregate(results)
        assert len(cells) == 2
        assert all(cell.n == 2 for cell in cells)
        by_mean = sorted(cell.viewing_stat(20.0).mean for cell in cells)
        assert by_mean == [75.0, 91.0]

    def test_cells_sorted_by_cell_id(self):
        results = _results({7: [90.0], 4: [70.0]})
        cells = aggregate(results)
        assert [cell.cell_id for cell in cells] == sorted(cell.cell_id for cell in cells)

    def test_aggregation_independent_of_insertion_order(self):
        forward = _results({4: [70.0, 80.0, 75.0]})
        backward = {task: summary for task, summary in reversed(list(forward.items()))}
        assert aggregate(forward) == aggregate(backward)

    def test_unknown_lag_raises(self):
        cells = aggregate(_results({4: [70.0]}))
        with pytest.raises(KeyError):
            cells[0].viewing_stat(123.0)
        with pytest.raises(KeyError):
            cells[0].complete_windows_stat(123.0)


class TestAggregateTable:
    def test_table_contains_cells_and_stats(self):
        cells = aggregate(_results({4: [70.0, 80.0], 7: [90.0, 92.0]}))
        table = aggregate_table(cells)
        assert "fanout=4" in table
        assert "fanout=7" in table
        assert "view@20s" in table
        assert "view@offline" in table
        assert "delivery" in table
        assert "75.00±" in table

    def test_empty_aggregates_render_placeholder(self):
        assert aggregate_table([]) == "(no cells)"
