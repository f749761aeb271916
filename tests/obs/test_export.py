"""Exporter tests: Prometheus exposition and JSON-lines round-trips."""

from __future__ import annotations

import io
import json
import random

import pytest

from repro.obs.export import (
    MetricsJsonWriter,
    parse_prometheus,
    parse_sample_line,
    render_prometheus,
)
from repro.obs.metrics import MetricsRegistry, format_sample_name


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("repro_events_total", "events fed").inc(42)
    registry.gauge("repro_state_size_now", "retained state").set(7)
    histogram = registry.histogram("repro_latency", "latency", buckets=(1, 5, 10))
    for value in (0, 2, 6, 11):
        histogram.observe(value)
    return registry


def test_prometheus_exposition_structure():
    text = render_prometheus(_populated_registry())
    lines = text.splitlines()
    assert "# HELP repro_events_total events fed" in lines
    assert "# TYPE repro_events_total counter" in lines
    assert "# TYPE repro_state_size_now gauge" in lines
    assert "# TYPE repro_latency histogram" in lines
    # Cumulative buckets, ending at +Inf == _count.
    assert 'repro_latency_bucket{le="1"} 1' in lines
    assert 'repro_latency_bucket{le="5"} 2' in lines
    assert 'repro_latency_bucket{le="10"} 3' in lines
    assert 'repro_latency_bucket{le="+Inf"} 4' in lines
    assert "repro_latency_sum 19" in lines
    assert "repro_latency_count 4" in lines
    assert text.endswith("\n")


def test_prometheus_parse_round_trip():
    registry = _populated_registry()
    samples = parse_prometheus(render_prometheus(registry))
    assert samples["repro_events_total"] == 42
    assert samples["repro_state_size_now"] == 7
    assert samples['repro_latency_bucket{le="+Inf"}'] == 4
    assert samples["repro_latency_count"] == 4


def test_prometheus_help_escaping():
    registry = MetricsRegistry()
    registry.counter("repro_c", "line one\nback\\slash").inc()
    text = render_prometheus(registry)
    assert "# HELP repro_c line one\\nback\\\\slash" in text.splitlines()
    assert parse_prometheus(text)["repro_c"] == 1


def test_parse_prometheus_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_prometheus("justonetoken\n")


def test_json_writer_lines_restore_into_a_registry():
    registry = _populated_registry()
    sink = io.StringIO()
    writer = MetricsJsonWriter(sink)
    writer.write(100, registry)
    registry.get("repro_events_total").inc(8)
    writer.write(200, registry)
    assert writer.written == 2

    records = [json.loads(line) for line in sink.getvalue().splitlines()]
    assert [record["seq"] for record in records] == [100, 200]

    # Round-trip: restoring the first snapshot rewinds the live registry.
    registry.restore_state(records[0]["metrics"])
    assert registry.get("repro_events_total").value == 42
    # And the final snapshot restores into a brand-new registry.
    fresh = MetricsRegistry()
    fresh.restore_state(records[1]["metrics"])
    assert fresh.get("repro_events_total").value == 50
    assert fresh.get("repro_latency").count == 4
    assert fresh.snapshot_state() == records[1]["metrics"]


# -- escaping round-trip property --------------------------------------------------


#: Characters exposition escaping must survive: backslashes, quotes,
#: newlines, spaces, braces, commas, equals — alone and adjacent.
_NASTY_FRAGMENTS = [
    "\\", '"', "\n", " ", "{", "}", ",", "=", "\\n", '\\"', "\\\\",
    'a"b', "tail\\", "\nlead", 'mix\\"\n, ok=1}',
]


def _random_nasty(rng: random.Random) -> str:
    return "".join(
        rng.choice(_NASTY_FRAGMENTS + ["plain", "x1", "µ"])
        for _ in range(rng.randint(1, 5))
    )


def test_sample_line_round_trips_nasty_label_values():
    rng = random.Random(20260808)
    for trial in range(200):
        labels = {
            f"l{i}": _random_nasty(rng) for i in range(rng.randint(1, 3))
        }
        registry = MetricsRegistry()
        counter = registry.counter("repro_nasty_total", "n", labels=labels)
        counter.inc(trial + 1)
        line = [
            ln for ln in render_prometheus(registry).splitlines()
            if ln and not ln.startswith("#")
        ][0]
        name, parsed, value = parse_sample_line(line)
        assert name == "repro_nasty_total"
        assert dict(parsed) == labels, f"trial {trial}: {line!r}"
        assert value == trial + 1


def test_parse_prometheus_keys_are_canonical_for_nasty_labels():
    rng = random.Random(7)
    registry = MetricsRegistry()
    expected = {}
    for i in range(30):
        labels = {"v": _random_nasty(rng)}
        gauge = registry.gauge("repro_nasty_now", "g", labels=labels)
        gauge.set(i)
        expected[format_sample_name("repro_nasty_now", tuple(sorted(labels.items())))] = i
    samples = parse_prometheus(render_prometheus(registry))
    for key, value in expected.items():
        assert samples[key] == value


def test_help_text_round_trips_escapes():
    rng = random.Random(99)
    for __ in range(50):
        help_text = _random_nasty(rng)
        registry = MetricsRegistry()
        registry.counter("repro_h_total", help_text).inc()
        text = render_prometheus(registry)
        # One logical HELP line regardless of embedded newlines.
        help_lines = [l for l in text.splitlines() if l.startswith("# HELP")]
        escaped = help_text.replace("\\", "\\\\").replace("\n", "\\n")
        assert help_lines == [f"# HELP repro_h_total {escaped}"]


def test_labeled_histogram_renders_le_alongside_labels():
    registry = MetricsRegistry()
    histogram = registry.histogram(
        "repro_stagey", "h", buckets=(1, 2), labels={"stage": "a b"}
    )
    histogram.observe(1.5)
    samples = parse_prometheus(render_prometheus(registry))
    # ``le`` is appended after the metric's own (sorted) labels.
    assert samples['repro_stagey_bucket{stage="a b",le="2"}'] == 1
    assert samples['repro_stagey_bucket{stage="a b",le="+Inf"}'] == 1
    assert samples['repro_stagey_count{stage="a b"}'] == 1


def test_parse_sample_line_rejects_malformed():
    for bad in (
        "",
        "{}",
        'name{x="unterminated} 1',
        'name{x="v"',
        'name{x=unquoted} 1',
        'name{x="v"} ',
        'name{x="dangling\\',
    ):
        with pytest.raises(ValueError):
            parse_sample_line(bad)
