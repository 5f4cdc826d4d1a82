"""Fixed-width tables: what ``repro compare`` and the examples print."""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

Cell = Union[str, int, float]

__all__ = ["format_table", "format_row"]


def format_cell(value: Cell) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_row(cells: Sequence[Cell], widths: Sequence[int]) -> str:
    parts = []
    for cell, width in zip(cells, widths):
        text = format_cell(cell)
        parts.append(text.ljust(width))
    return "  ".join(parts).rstrip()


def format_table(
    title: str, headers: Sequence[str], rows: Iterable[Sequence[Cell]]
) -> str:
    """Render a fixed-width table with a title banner."""
    materialized: List[Sequence[Cell]] = [list(r) for r in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(format_cell(cell)))
    lines = [
        "=" * max(len(title), sum(widths) + 2 * (len(widths) - 1)),
        title,
        "-" * max(len(title), sum(widths) + 2 * (len(widths) - 1)),
        format_row(headers, widths),
    ]
    lines.extend(format_row(row, widths) for row in materialized)
    lines.append("")
    return "\n".join(lines)
