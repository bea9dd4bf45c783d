"""Rendering experiment results as aligned text tables.

The benchmark harness prints one table per paper figure and
``stsyn trace-report`` one table per trace section; this module holds the
reusable pieces — a tiny column-typed table and its text rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence


def format_value(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4f}" if abs(value) < 10 else f"{value:.2f}"
    return str(value)


@dataclass
class ResultTable:
    """A titled table of measurement rows."""

    title: str
    columns: Sequence[str]
    note: str = ""
    rows: list[list] = field(default_factory=list)

    def add(self, *row) -> None:
        if len(row) != len(self.columns):
            raise ValueError(
                f"row has {len(row)} cells; table {self.title!r} has "
                f"{len(self.columns)} columns"
            )
        self.rows.append(list(row))

    # ------------------------------------------------------------------
    def to_text(self) -> str:
        cells = [[format_value(c) for c in row] for row in self.rows]
        widths = [
            max(len(str(col)), *(len(r[i]) for r in cells)) if cells else len(str(col))
            for i, col in enumerate(self.columns)
        ]
        lines = [f"== {self.title} =="]
        if self.note:
            lines.append(f"   {self.note}")
        lines.append(
            "   " + "  ".join(str(c).rjust(w) for c, w in zip(self.columns, widths))
        )
        for row in cells:
            lines.append("   " + "  ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)


def render_tables(tables: Iterable[ResultTable]) -> str:
    return "\n\n".join(t.to_text() for t in tables)


def safe_percent(part: float, total: float) -> float:
    """``100 * part / total``, defined as 0.0 when ``total`` is zero.

    Every percentage column in this package goes through here: an empty
    trace (or an all-zero one — possible on platforms with a coarse
    ``perf_counter``) must render as 0 %, not crash the report.
    """
    if total <= 0:
        return 0.0
    return 100.0 * part / total
