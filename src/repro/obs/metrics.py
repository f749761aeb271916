"""Metrics primitives: counters, gauges, and fixed-bucket histograms.

Zero-dependency and deliberately boring: the registry is a plain
insertion-ordered dict of metric objects, every metric is a couple of
ints, and nothing here touches the wall clock — values are *logical*
(timestamp units, event counts, algorithmic work ticks), so instrumented
runs stay exactly as deterministic and replayable as plain ones.

Two properties the rest of the observability layer leans on:

* **handles stay valid across restore** — engines register metrics once
  and keep direct references; :meth:`MetricsRegistry.restore_state`
  mutates existing objects in place instead of rebinding names, so a
  crash-recovered engine keeps incrementing the same counters it
  registered before the snapshot was taken;
* **state is JSON-able** — :meth:`MetricsRegistry.snapshot_state`
  round-trips through ``json.dumps``/``loads`` unchanged, which is what
  the JSON-lines exporter and the checkpoint integration rely on;
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.metrics.latency import percentile_index

#: Default histogram bucket upper bounds (``le`` semantics, ascending).
DEFAULT_BUCKETS: Tuple[int, ...] = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500)

#: Per-event algorithmic work (partials + predicate evals + triggers).
TICK_BUCKETS: Tuple[int, ...] = (0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)

#: Emission latency / buffer residence in timestamp units.
LATENCY_BUCKETS: Tuple[int, ...] = (0, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000)

#: Retained-state size in stored elements.
STATE_BUCKETS: Tuple[int, ...] = (
    0, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000,
)

#: Wall-clock stage latency in seconds.  The only float-bounded layout:
#: the ingest path measures real time (span stages, WAL sync, ack
#: round-trips), unlike the engine metrics, which stay in logical units.
SECONDS_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

#: Normalized label pairs: sorted ``(key, value)`` tuples.
LabelPairs = Tuple[Tuple[str, str], ...]


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def normalize_labels(labels: Optional[Mapping[str, str]]) -> LabelPairs:
    """Sorted, stringified label pairs — the registry's canonical form."""
    if not labels:
        return ()
    return tuple(sorted((str(key), str(value)) for key, value in labels.items()))


def format_sample_name(name: str, labels: LabelPairs) -> str:
    """Canonical sample key: ``name`` or ``name{k="v",...}`` (escaped)."""
    if not labels:
        return name
    body = ",".join(
        f'{key}="{escape_label_value(value)}"' for key, value in labels
    )
    return name + "{" + body + "}"


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "help", "value", "labels", "key")

    def __init__(self, name: str, help: str = "", labels: LabelPairs = ()):
        self.name = name
        self.help = help
        self.labels = labels
        self.key = format_sample_name(name, labels)
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.key}={self.value})"


class Gauge:
    """A point-in-time sample (state size, buffer depth, bounds)."""

    kind = "gauge"
    __slots__ = ("name", "help", "value", "labels", "key")

    def __init__(self, name: str, help: str = "", labels: LabelPairs = ()):
        self.name = name
        self.help = help
        self.labels = labels
        self.key = format_sample_name(name, labels)
        self.value = 0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.key}={self.value})"


class Histogram:
    """Fixed-bucket histogram with cumulative ``le`` semantics.

    An observation lands in the first bucket whose upper bound is
    ``>= value``; anything above the last bound goes to the implicit
    ``+Inf`` overflow bucket.  Bounds are fixed at registration: a
    checkpoint restores into the same buckets or is refused.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "bounds", "counts", "total", "count", "labels", "key")

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        labels: LabelPairs = (),
    ):
        bounds = tuple(buckets)
        if not bounds or any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"histogram buckets must be non-empty and strictly ascending, got {bounds!r}"
            )
        self.name = name
        self.help = help
        self.labels = labels
        self.key = format_sample_name(name, labels)
        self.bounds = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)  # last = +Inf
        self.total = 0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the q-quantile observation.

        Uses the same ceil-rank convention as
        :func:`repro.metrics.latency.percentile_index`; observations in
        the overflow bucket report ``inf`` (the histogram only knows
        they exceeded the last bound).
        """
        if self.count == 0:
            return 0.0
        rank = percentile_index(self.count, q) + 1
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if index < len(self.bounds):
                    return float(self.bounds[index])
                return float("inf")
        return float("inf")

    def summary(self) -> Dict[str, float]:
        """Compact distribution summary for report tables."""
        return {
            "count": self.count,
            "mean": self.mean(),
            "p50": self.quantile(0.5),
            "p90": self.quantile(0.9),
            "p99": self.quantile(0.99),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.key}, count={self.count}, mean={self.mean():.2f})"


class MetricsRegistry:
    """Insertion-ordered collection of metrics, keyed by sample name.

    Registration is idempotent: asking for an existing name (and label
    set — a labeled metric is one time series per distinct label
    combination, ``repro_stage_seconds{stage="sync"}``) returns the
    existing object, but re-registering under a different kind or
    bucket layout raises — a name collision would silently corrupt
    whichever party registered first.
    """

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    # -- registration -----------------------------------------------------------

    def counter(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Counter:
        pairs = normalize_labels(labels)
        key = format_sample_name(name, pairs)
        return self._register(key, Counter, lambda: Counter(name, help, pairs))

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Gauge:
        pairs = normalize_labels(labels)
        key = format_sample_name(name, pairs)
        return self._register(key, Gauge, lambda: Gauge(name, help, pairs))

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        labels: Optional[Mapping[str, str]] = None,
    ) -> Histogram:
        pairs = normalize_labels(labels)
        key = format_sample_name(name, pairs)
        metric = self._register(
            key, Histogram, lambda: Histogram(name, help, buckets, pairs)
        )
        if metric.bounds != tuple(buckets):
            raise ConfigurationError(
                f"histogram {key!r} already registered with buckets "
                f"{metric.bounds!r}, not {tuple(buckets)!r}"
            )
        return metric

    def _register(self, key: str, kind: type, build: Callable[[], Any]) -> Any:
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = build()
        elif type(metric) is not kind:
            raise ConfigurationError(
                f"metric {key!r} already registered as {metric.kind}, "
                f"not {kind.kind}"
            )
        return metric

    # -- access -----------------------------------------------------------------

    def get(self, name: str) -> Optional[Any]:
        return self._metrics.get(name)

    def metrics(self) -> List[Any]:
        return list(self._metrics.values())

    # -- state ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Full registry contents as a JSON-able dict.

        Keys are canonical sample names (labels rendered in); labeled
        metrics carry their base ``name`` and ``labels`` in the payload
        so restore can re-register them structurally.
        """
        counters: Dict[str, Any] = {}
        gauges: Dict[str, Any] = {}
        histograms: Dict[str, Any] = {}
        for key, metric in self._metrics.items():
            if metric.kind == "counter":
                payload: Dict[str, Any] = {"help": metric.help, "value": metric.value}
                if metric.labels:
                    payload["name"] = metric.name
                    payload["labels"] = dict(metric.labels)
                counters[key] = payload
            elif metric.kind == "gauge":
                payload = {"help": metric.help, "value": metric.value}
                if metric.labels:
                    payload["name"] = metric.name
                    payload["labels"] = dict(metric.labels)
                gauges[key] = payload
            else:
                payload = {
                    "help": metric.help,
                    "bounds": list(metric.bounds),
                    "counts": list(metric.counts),
                    "total": metric.total,
                    "count": metric.count,
                }
                if metric.labels:
                    payload["name"] = metric.name
                    payload["labels"] = dict(metric.labels)
                histograms[key] = payload
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def restore_state(self, state: dict) -> None:
        """Overwrite registry contents from :meth:`snapshot_state` output.

        Existing metric objects are mutated in place (live handles stay
        valid); metrics present in the snapshot but not yet registered
        are created; registered metrics absent from the snapshot reset
        to zero — the same full-overwrite convention as
        :meth:`repro.core.stats.EngineStats.restore_from`.
        """
        snapshot_names = set()
        for key, payload in state.get("counters", {}).items():
            snapshot_names.add(key)
            self.counter(
                payload.get("name", key), payload.get("help", ""),
                payload.get("labels"),
            ).value = payload["value"]
        for key, payload in state.get("gauges", {}).items():
            snapshot_names.add(key)
            self.gauge(
                payload.get("name", key), payload.get("help", ""),
                payload.get("labels"),
            ).value = payload["value"]
        for key, payload in state.get("histograms", {}).items():
            snapshot_names.add(key)
            metric = self.histogram(
                payload.get("name", key), payload.get("help", ""),
                tuple(payload["bounds"]), payload.get("labels"),
            )
            metric.counts = list(payload["counts"])
            metric.total = payload["total"]
            metric.count = payload["count"]
        for name, metric in self._metrics.items():
            if name in snapshot_names:
                continue
            if metric.kind == "histogram":
                metric.counts = [0] * (len(metric.bounds) + 1)
                metric.total = 0
                metric.count = 0
            else:
                metric.value = 0
