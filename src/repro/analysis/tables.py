"""Plain-text table formatting.

The benchmark harness prints the rows each experiment produces (the
reproduction analogue of the paper's tables and figures); this helper keeps
that output aligned without any plotting dependency.
"""

from __future__ import annotations

import io
from typing import Mapping, Sequence


def _format_value(value: object, float_format: str) -> str:
    if isinstance(value, float):
        return format(value, float_format)
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str] | None = None,
    float_format: str = ".4g",
    title: str | None = None,
) -> str:
    """Render rows (list of dicts) as an aligned plain-text table."""
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered = [
        [_format_value(row.get(column, ""), float_format) for column in columns]
        for row in rows
    ]
    widths = [
        max(len(column), *(len(line[idx]) for line in rendered))
        for idx, column in enumerate(columns)
    ]
    out = io.StringIO()
    if title:
        out.write(title + "\n")
    header = "  ".join(column.ljust(widths[idx]) for idx, column in enumerate(columns))
    out.write(header + "\n")
    out.write("  ".join("-" * width for width in widths) + "\n")
    for line in rendered:
        out.write("  ".join(value.ljust(widths[idx]) for idx, value in enumerate(line)) + "\n")
    return out.getvalue().rstrip("\n")
