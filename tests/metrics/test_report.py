"""Unit tests for series containers and text rendering."""

import math

import pytest

from repro.metrics.report import Series, format_series_table, format_table


class TestSeries:
    def test_add_and_access(self):
        series = Series(label="offline")
        series.add(7, 99.0)
        series.add(10, 80.0)
        assert series.xs() == [7, 10]
        assert series.ys() == [99.0, 80.0]
        assert series.y_at(10) == 80.0

    def test_y_at_missing_x_raises(self):
        series = Series(label="x")
        with pytest.raises(KeyError):
            series.y_at(3)

    def test_max_y_and_argmax(self):
        series = Series(label="x", points=[(1, 10.0), (2, 50.0), (3, 20.0)])
        assert series.max_y() == 50.0
        assert series.argmax_x() == 2

    def test_argmax_of_empty_series_raises(self):
        with pytest.raises(ValueError):
            Series(label="x").argmax_x()

    def test_max_y_of_empty_series_is_zero(self):
        assert Series(label="x").max_y() == 0.0


class TestFormatting:
    def test_format_table_aligns_columns(self):
        text = format_table(["fanout", "offline"], [[7, 99.5], [50, 3.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "fanout" in lines[0]
        assert "99.5" in lines[2]
        assert "3.2" in lines[3] or "3.3" in lines[3]

    def test_format_table_handles_inf(self):
        text = format_table(["lag"], [[math.inf]])
        assert "inf" in text

    def test_format_series_table_merges_x_values(self):
        first = Series(label="a", points=[(1, 10.0), (2, 20.0)])
        second = Series(label="b", points=[(2, 5.0), (3, 6.0)])
        text = format_series_table([first, second], x_label="x")
        assert "a" in text and "b" in text
        # Missing combinations render as '-'.
        assert "-" in text
        assert text.splitlines()[0].startswith("x")
