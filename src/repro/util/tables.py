"""Plain-text table rendering for experiment reports.

The experiment harness prints the same rows/series a paper table would show.
Keeping the renderer tiny and dependency-free means every experiment module
can produce terminal-friendly output and the tests can assert on structure.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

__all__ = ["Table", "format_float"]


def format_float(value: float, digits: int = 4) -> str:
    """Format a float compactly: fixed point for mid-range, sci otherwise."""
    if value == 0:
        return "0"
    magnitude = abs(value)
    if 1e-3 <= magnitude < 1e6:
        text = f"{value:.{digits}f}"
        if "." in text:
            text = text.rstrip("0").rstrip(".")
        return text
    return f"{value:.{digits}e}"


def _cell(value: Any, digits: int) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format_float(value, digits)
    return str(value)


class Table:
    """A titled table with a fixed header and appendable rows."""

    def __init__(self, title: str, columns: Sequence[str], digits: int = 4) -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        self.title = title
        self.columns = list(columns)
        self.digits = digits
        self.rows: list[list[str]] = []

    def add_row(self, *values: Any) -> None:
        """Append one row; must match the header width."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append([_cell(v, self.digits) for v in values])

    def extend(self, rows: Iterable[Sequence[Any]]) -> None:
        """Append many rows."""
        for row in rows:
            self.add_row(*row)

    def column(self, name: str) -> list[str]:
        """Return the rendered cells of the named column."""
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise KeyError(f"no column named {name!r}") from None
        return [row[idx] for row in self.rows]

    def render(self) -> str:
        """Render the table with a title line, rules, and aligned columns."""
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def line(cells: Sequence[str]) -> str:
            return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

        rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
        parts = [self.title, rule, line(self.columns), rule]
        parts.extend(line(row) for row in self.rows)
        parts.append(rule)
        return "\n".join(parts)

    def __str__(self) -> str:
        return self.render()
