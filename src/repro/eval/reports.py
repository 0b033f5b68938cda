"""Plain-text table formatting for experiment output.

The benchmark harness prints the same rows the paper's tables report; these
helpers keep that formatting in one place (fixed-width ASCII tables that read
well in CI logs and terminal output).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.errors import DataError

__all__ = ["format_table", "format_matrix"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str | None = None,
    float_format: str = "{:.4f}",
) -> str:
    """Render ``rows`` as a fixed-width ASCII table.

    Args:
        headers: Column headers.
        rows: Row values; floats are formatted with ``float_format``.
        title: Optional title line printed above the table.
        float_format: Format spec applied to float cells.
    """
    if not headers:
        raise DataError("format_table requires at least one header")
    rendered_rows: list[list[str]] = []
    for row in rows:
        if len(row) != len(headers):
            raise DataError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
        rendered_rows.append(
            [
                float_format.format(cell) if isinstance(cell, float) else str(cell)
                for cell in row
            ]
        )
    widths = [
        max(len(str(headers[column])), *(len(row[column]) for row in rendered_rows))
        if rendered_rows
        else len(str(headers[column]))
        for column in range(len(headers))
    ]
    lines: list[str] = []
    if title:
        lines.append(title)
    header_line = " | ".join(str(header).ljust(width) for header, width in zip(headers, widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append(" | ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def format_matrix(
    row_labels: Sequence[str],
    column_labels: Sequence[str],
    values: Mapping[str, Mapping[str, float]],
    *,
    title: str | None = None,
    corner: str = "",
) -> str:
    """Render a labelled 2-D matrix (used for the Table IV cross-corpus grid)."""
    headers = [corner, *column_labels]
    rows = []
    for row_label in row_labels:
        row: list[object] = [row_label]
        for column_label in column_labels:
            row.append(values.get(row_label, {}).get(column_label, float("nan")))
        rows.append(row)
    return format_table(headers, rows, title=title)
