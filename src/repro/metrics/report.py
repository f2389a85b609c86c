"""Plain-text rendering of experiment results.

The benchmark harness regenerates the paper's figures as *series* — named
sequences of (x, y) points — and prints them as aligned text tables, since
the environment has no plotting stack.  These helpers keep that rendering in
one place so every figure generator and example prints consistently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


@dataclass
class Series:
    """One named curve of a figure: a label and its (x, y) points."""

    label: str
    points: List[Tuple[float, float]] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        """Append one point to the series."""
        self.points.append((x, y))

    def xs(self) -> List[float]:
        """The x coordinates, in insertion order."""
        return [x for x, _ in self.points]

    def ys(self) -> List[float]:
        """The y coordinates, in insertion order."""
        return [y for _, y in self.points]

    def y_at(self, x: float) -> float:
        """The y value recorded for ``x`` (exact match required)."""
        for point_x, point_y in self.points:
            if point_x == x:
                return point_y
        raise KeyError(f"series {self.label!r} has no point at x={x!r}")

    def max_y(self) -> float:
        """Largest y value of the series (0.0 when empty)."""
        return max(self.ys(), default=0.0)

    def argmax_x(self) -> float:
        """x coordinate of the largest y value."""
        if not self.points:
            raise ValueError(f"series {self.label!r} is empty")
        return max(self.points, key=lambda point: point[1])[0]


def _format_value(value: float, precision: int = 1) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    precision: int = 1,
) -> str:
    """Render rows as an aligned, pipe-separated text table."""
    rendered_rows = [
        [
            _format_value(cell, precision) if isinstance(cell, (int, float)) else str(cell)
            for cell in row
        ]
        for row in rows
    ]
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    header_line = " | ".join(str(header).ljust(widths[index]) for index, header in enumerate(headers))
    lines.append(header_line)
    lines.append("-+-".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append(" | ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
    return "\n".join(lines)


def format_series_table(
    series_list: Sequence[Series],
    x_label: str = "x",
    precision: int = 1,
) -> str:
    """Render several series sharing (roughly) the same x grid as one table.

    Missing points (a series without a value at some x) render as ``-``.
    """
    all_xs: List[float] = []
    seen: Dict[float, None] = {}
    for series in series_list:
        for x in series.xs():
            if x not in seen:
                seen[x] = None
                all_xs.append(x)

    headers = [x_label] + [series.label for series in series_list]
    rows: List[List[object]] = []
    for x in all_xs:
        row: List[object] = [x]
        for series in series_list:
            try:
                row.append(series.y_at(x))
            except KeyError:
                row.append("-")
        rows.append(row)
    return format_table(headers, rows, precision=precision)
