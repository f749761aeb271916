"""Metrics primitives: registration, histograms, snapshot/restore."""

from __future__ import annotations

import json

import pytest

from repro.core.errors import ConfigurationError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


def test_counter_and_gauge_basics():
    counter = Counter("c", "help")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    gauge = Gauge("g")
    gauge.set(7)
    gauge.set(3)
    assert gauge.value == 3


def test_registration_is_idempotent_and_returns_the_same_object():
    registry = MetricsRegistry()
    first = registry.counter("repro_x", "help text")
    second = registry.counter("repro_x")
    assert first is second
    assert registry.get("repro_x") is first
    assert "repro_x" in registry
    assert len(registry) == 1


def test_kind_collision_raises():
    registry = MetricsRegistry()
    registry.counter("repro_x")
    with pytest.raises(ConfigurationError):
        registry.gauge("repro_x")


def test_histogram_bucket_layout_collision_raises():
    registry = MetricsRegistry()
    registry.histogram("repro_h", buckets=(1, 2, 3))
    with pytest.raises(ConfigurationError):
        registry.histogram("repro_h", buckets=(1, 2, 4))


def test_histogram_buckets_must_be_ascending():
    with pytest.raises(ConfigurationError):
        Histogram("h", buckets=(5, 2))
    with pytest.raises(ConfigurationError):
        Histogram("h", buckets=())


def test_histogram_le_semantics_and_overflow():
    histogram = Histogram("h", buckets=(1, 5, 10))
    for value in (0, 1, 2, 5, 9, 10, 11, 1000):
        histogram.observe(value)
    # counts: <=1 {0,1}, <=5 {2,5}, <=10 {9,10}, +Inf {11,1000}
    assert histogram.counts == [2, 2, 2, 2]
    assert histogram.count == 8
    assert histogram.total == sum((0, 1, 2, 5, 9, 10, 11, 1000))


def test_histogram_quantiles_report_bucket_upper_bounds():
    histogram = Histogram("h", buckets=(1, 5, 10))
    for value in (0, 0, 2, 3, 7):
        histogram.observe(value)
    assert histogram.quantile(0.5) == 5.0  # 3rd of 5 ranked obs is in <=5
    assert histogram.quantile(0.0) == 1.0
    assert histogram.quantile(1.0) == 10.0
    histogram.observe(99)  # overflow
    assert histogram.quantile(1.0) == float("inf")
    assert Histogram("empty", buckets=(1,)).quantile(0.9) == 0.0


def test_histogram_summary_keys():
    histogram = Histogram("h", buckets=(1, 5, 10))
    histogram.observe(3)
    summary = histogram.summary()
    assert set(summary) == {"count", "mean", "p50", "p90", "p99"}
    assert summary["count"] == 1
    assert summary["mean"] == 3.0


def test_snapshot_state_is_json_round_trippable():
    registry = MetricsRegistry()
    registry.counter("repro_c", "a counter").inc(3)
    registry.gauge("repro_g", "a gauge").set(9)
    registry.histogram("repro_h", "a histogram", buckets=(1, 2)).observe(2)
    state = registry.snapshot_state()
    assert json.loads(json.dumps(state)) == state
    assert state["counters"]["repro_c"]["value"] == 3
    assert state["histograms"]["repro_h"]["counts"] == [0, 1, 0]


def test_restore_state_mutates_live_handles_in_place():
    registry = MetricsRegistry()
    counter = registry.counter("repro_c")
    histogram = registry.histogram("repro_h", buckets=(1, 2))
    counter.inc(2)
    histogram.observe(1)
    state = registry.snapshot_state()
    counter.inc(10)
    histogram.observe(2)
    registry.restore_state(state)
    # The objects registered before the snapshot are the ones restored.
    assert counter.value == 2
    assert histogram.count == 1
    assert registry.get("repro_c") is counter


def test_restore_state_creates_missing_and_zeroes_absent():
    registry = MetricsRegistry()
    stale = registry.counter("repro_stale")
    stale.inc(5)
    registry.restore_state(
        {"counters": {"repro_new": {"help": "h", "value": 4}}, "gauges": {}, "histograms": {}}
    )
    assert registry.get("repro_new").value == 4
    assert stale.value == 0
