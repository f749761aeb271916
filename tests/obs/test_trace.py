"""Tracer unit tests: span ids, ring bounds, stream tags."""

from __future__ import annotations

import pytest

from repro.obs import trace as stages
from repro.obs.trace import NullTracer, Span, Tracer


def test_span_ids_derive_from_arrival_and_sub_index():
    tracer = Tracer(capacity=16)
    first = tracer.record(0, stages.ADMITTED, eid=1, ts=5, etype="A")
    second = tracer.record(0, stages.MATCH_EMITTED, eid=1, ts=5, etype="A")
    third = tracer.record(1, stages.IGNORED, eid=2, ts=6, etype="B")
    assert [s.span_id for s in (first, second, third)] == ["0.0", "0.1", "1.0"]


def test_span_ids_are_deterministic_across_replays():
    def run():
        tracer = Tracer(capacity=64)
        for arrival in range(5):
            tracer.record(arrival, stages.ADMITTED, eid=arrival)
            tracer.record(arrival, stages.PURGED, eid=arrival)
        return [s.span_id for s in tracer.spans()]

    assert run() == run()


def test_stream_tag_prefixes_and_isolates_sub_counters():
    tracer = Tracer(capacity=32)
    tracer.record(5, stages.BUFFERED, eid=1, stream="")
    tracer.record(3, stages.ADMITTED, eid=1, stream="inner")
    # Back to the outer stream on the SAME arrival: the sub counter must
    # continue, not reset — interleaved layers share one tracer.
    span = tracer.record(5, stages.RELEASED, eid=1, stream="")
    assert span.span_id == "5.1"
    inner = [s for s in tracer.spans() if s.stream == "inner"]
    assert [s.span_id for s in inner] == ["inner:3.0"]
    ids = [s.span_id for s in tracer.spans()]
    assert len(ids) == len(set(ids))


def test_ring_buffer_bounds_retention_and_reports_overflow():
    tracer = Tracer(capacity=4)
    for arrival in range(10):
        tracer.record(arrival, stages.ADMITTED, eid=arrival)
    assert len(tracer) == 4
    assert tracer.recorded == 10
    assert tracer.overflowed()
    # Oldest spans fell off the front; the newest four remain.
    assert [s.arrival for s in tracer.spans()] == [6, 7, 8, 9]


def test_spans_for_filters_by_eid_in_record_order():
    tracer = Tracer(capacity=16)
    tracer.record(0, stages.ADMITTED, eid=7)
    tracer.record(1, stages.ADMITTED, eid=8)
    tracer.record(2, stages.MATCH_EMITTED, eid=7)
    assert [s.stage for s in tracer.spans_for(7)] == [
        stages.ADMITTED,
        stages.MATCH_EMITTED,
    ]
    assert tracer.spans_for(99) == []


def test_stage_counts_and_clear():
    tracer = Tracer(capacity=16)
    tracer.record(0, stages.ADMITTED, eid=1)
    tracer.record(1, stages.ADMITTED, eid=2)
    tracer.record(2, stages.PURGED, eid=1)
    assert tracer.stage_counts() == {stages.ADMITTED: 2, stages.PURGED: 1}


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        Tracer(capacity=0)


def test_null_tracer_is_inert():
    tracer = NullTracer()
    assert tracer.enabled is False
    tracer.record(0, stages.ADMITTED, eid=1, detail="ignored")
    assert tracer.spans() == []
    assert tracer.spans_for(1) == []
    assert len(tracer) == 0


def test_span_as_dict_round_trips_fields():
    span = Span("3.1", 3, stages.SHED, eid=9, ts=40, etype="A", detail="why", stream="inner")
    payload = span.as_dict()
    assert payload == {
        "span_id": "3.1",
        "arrival": 3,
        "stage": stages.SHED,
        "eid": 9,
        "ts": 40,
        "etype": "A",
        "detail": "why",
        "stream": "inner",
    }
