"""Plain-text table/series rendering for benchmark output.

The benchmarks print the same rows/series the paper's tables and
figures report; this module owns the formatting so every experiment's
output looks the same and is trivially greppable.  No plotting
dependencies — a figure is rendered as its data series.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence


def format_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    if isinstance(value, int) and abs(value) >= 10_000:
        return f"{value:,}"
    return str(value)


def render_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[Any]],
    note: str = "",
) -> str:
    """A fixed-width ASCII table with a title rule."""
    rendered_rows = [[format_cell(cell) for cell in row] for row in rows]
    widths = [len(col) for col in columns]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    lines.append("=" * max(len(title), sum(widths) + 3 * (len(columns) - 1)))
    lines.append(title)
    lines.append("-" * max(len(title), sum(widths) + 3 * (len(columns) - 1)))
    lines.append("   ".join(col.ljust(widths[i]) for i, col in enumerate(columns)))
    for row in rendered_rows:
        lines.append("   ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    if note:
        lines.append(f"note: {note}")
    lines.append("")
    return "\n".join(lines)


def render_series(
    title: str,
    x_label: str,
    xs: Sequence[Any],
    series: Dict[str, Sequence[Any]],
    note: str = "",
) -> str:
    """A figure as data: one x column, one column per named series."""
    columns = [x_label] + list(series)
    rows = []
    for index, x in enumerate(xs):
        row = [x] + [values[index] for values in series.values()]
        rows.append(row)
    return render_table(title, columns, rows, note=note)


def render_histogram(title: str, histogram: Any, note: str = "") -> str:
    """An observability histogram as a bucket table plus a summary line.

    Accepts any object with the :class:`repro.obs.metrics.Histogram`
    shape (``bounds``, ``counts``, ``summary()``); kept duck-typed so
    the reporter stays importable without the obs package.
    """
    rows: List[Sequence[Any]] = []
    upper_bounds = [str(bound) for bound in histogram.bounds] + ["+Inf"]
    for bound, count in zip(upper_bounds, histogram.counts):
        rows.append([f"<= {bound}", count])
    summary = histogram.summary()
    note_parts = [
        f"count={summary['count']}",
        f"mean={summary['mean']:.2f}",
        f"p50={summary['p50']:g}",
        f"p90={summary['p90']:g}",
        f"p99={summary['p99']:g}",
    ]
    if note:
        note_parts.append(note)
    return render_table(title, ["bucket", "count"], rows, note=" ".join(note_parts))


def print_table(*args, **kwargs) -> None:
    """:func:`render_table` straight to stdout."""
    print(render_table(*args, **kwargs))

