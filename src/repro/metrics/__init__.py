"""Measurement toolkit: latency, quality, reporting."""

from repro.metrics.latency import (
    LatencySummary,
    arrival_latencies,
    occurrence_latencies,
    summarize_arrival_latency,
    summarize_occurrence_latency,
)
from repro.metrics.quality import QualityReport, compare, compare_keys
from repro.metrics.reporter import (
    format_cell,
    print_series,
    print_table,
    render_histogram,
    render_series,
    render_table,
)

__all__ = [
    "LatencySummary",
    "QualityReport",
    "arrival_latencies",
    "compare",
    "compare_keys",
    "format_cell",
    "occurrence_latencies",
    "print_series",
    "print_table",
    "render_histogram",
    "render_series",
    "render_table",
    "summarize_arrival_latency",
    "summarize_occurrence_latency",
]
