"""Plain-text rendering of experiment results.

Every experiment driver returns nested dictionaries; these helpers turn them
into aligned text tables so the benchmark harness can print the same rows the
paper's tables/figures report, and EXPERIMENTS.md can embed them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

__all__ = ["format_table", "format_nested_table", "format_value"]

Number = Union[int, float]


def format_value(value: object, precision: int = 3) -> str:
    """Render a cell: floats with fixed precision, everything else via str().

    ``None`` renders as ``-`` (a milestone/metric that never materialised,
    e.g. the first-token step of a request that failed before decoding),
    matching the report summaries' convention.
    """
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1e5 or (abs(value) < 1e-3 and value != 0.0):
            return f"{value:.3e}"
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
    precision: int = 3,
) -> str:
    """Format a list of row dictionaries as an aligned text table."""
    if not rows:
        return title or ""
    columns = list(columns) if columns is not None else list(rows[0].keys())
    rendered = [
        [format_value(row.get(col, ""), precision) for col in columns] for row in rows
    ]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = " | ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for r in rendered:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(r)))
    return "\n".join(lines)


def format_nested_table(
    data: Mapping[str, Mapping[str, object]],
    row_label: str = "name",
    title: Optional[str] = None,
    precision: int = 3,
) -> str:
    """Format ``{row: {column: value}}`` as an aligned text table."""
    rows = []
    for name, values in data.items():
        row = {row_label: name}
        row.update(values)
        rows.append(row)
    return format_table(rows, title=title, precision=precision)
