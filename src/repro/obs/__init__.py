"""Runtime observability: lifecycle tracing, metrics, exporters, explain.

Zero-dependency instrumentation for every engine family.  Disabled by
default: an engine without an attached bundle pays exactly one
``self._obs is None`` attribute check per element (benchmarked in
``benchmarks/bench_e18_observability.py``).  Enable with::

    registry = MetricsRegistry()
    tracer = Tracer(capacity=65536)
    engine.enable_observability(tracer=tracer, metrics=registry)

and export with :func:`render_prometheus` / :class:`MetricsJsonWriter`,
or replay a trace interactively with ``repro explain``.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS,
    SECONDS_BUCKETS,
    STATE_BUCKETS,
    TICK_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import (
    ADMITTED,
    BUFFERED,
    IGNORED,
    LATE_DROPPED,
    MATCH_CANCELLED,
    MATCH_EMITTED,
    MATCH_PENDING,
    PREDICATE_REJECTED,
    PUNCTUATION,
    PURGED,
    QUARANTINED,
    RELEASED,
    SHED,
    STAGES,
    NullTracer,
    Span,
    Tracer,
)
from repro.obs.hooks import Observability
from repro.obs.export import (
    MetricsJsonWriter,
    parse_prometheus,
    read_metrics_jsonl,
    render_prometheus,
)
from repro.obs.span import (
    ACK_STAGES,
    SPAN_FIELD,
    SourceLagPanel,
    SpanTracker,
    mint_span,
    span_origin,
)
from repro.obs.flight import (
    FlightRecord,
    FlightRecorder,
    FlightReport,
    analyze_flight,
    load_flight,
    render_flight_lines,
)
from repro.obs.httpserv import TelemetryServer, http_get

__all__ = [
    "ACK_STAGES",
    "ADMITTED",
    "BUFFERED",
    "FlightRecord",
    "FlightRecorder",
    "FlightReport",
    "SECONDS_BUCKETS",
    "SPAN_FIELD",
    "SourceLagPanel",
    "SpanTracker",
    "TelemetryServer",
    "analyze_flight",
    "http_get",
    "load_flight",
    "mint_span",
    "render_flight_lines",
    "span_origin",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "IGNORED",
    "LATENCY_BUCKETS",
    "LATE_DROPPED",
    "MATCH_CANCELLED",
    "MATCH_EMITTED",
    "MATCH_PENDING",
    "MetricsJsonWriter",
    "MetricsRegistry",
    "NullTracer",
    "Observability",
    "PREDICATE_REJECTED",
    "PUNCTUATION",
    "PURGED",
    "QUARANTINED",
    "RELEASED",
    "SHED",
    "STAGES",
    "STATE_BUCKETS",
    "Span",
    "TICK_BUCKETS",
    "Tracer",
    "parse_prometheus",
    "read_metrics_jsonl",
    "render_prometheus",
]
