"""SpanTracker: the stage-attribution identity and the emit path."""

from __future__ import annotations

from repro.obs.export import parse_prometheus, render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import (
    ACK_STAGES,
    SourceLagPanel,
    SpanTracker,
    mint_span,
    span_origin,
)


def test_span_context_round_trip():
    span = mint_span(12.3456789)
    assert span_origin(span) == 12.3456789
    assert span_origin(None) is None
    assert span_origin({"t0": "not a number"}) is None
    assert span_origin("garbage") is None
    assert span_origin({}) is None


def test_stage_sums_telescope_to_e2e_exactly():
    registry = MetricsRegistry()
    tracker = SpanTracker(registry)
    tracker.open_cohort(10.0)
    # Two frames admitted back to back, one duplicate in between; the
    # cohort's one feed runs 10.007 -> 10.010, the flush until 10.020.
    tracker.note_frame("s1", "admitted", 10.001, 10.002, t_sent=9.9, eid=1)
    tracker.note_frame("s1", "duplicate", 10.004, 10.005, t_sent=9.95)
    tracker.note_frame("s2", "admitted", 10.005, 10.006, eid=2)
    record = tracker.seal_cohort(10.007, 10.010, 10.020, 10.021)

    assert record["frames"] == 3
    total = sum(record["stage_sums"].values())
    # The identity is by construction: telescoping boundaries over
    # [t_receipt, t_ack] for every frame, summed across the cohort.
    assert abs(total - record["e2e_sum"]) < 1e-12
    assert record["e2e_sum"] == (10.021 - 10.0) * 3
    assert record["statuses"] == ["admitted", "duplicate"]
    # The feed is the cohort's: the same interval for each of its frames;
    # hold is each frame's own wait from admission to that feed.
    assert abs(record["stage_sums"]["feed"] - 3 * (10.010 - 10.007)) < 1e-12
    assert abs(
        record["stage_sums"]["hold"]
        - ((10.007 - 10.002) + (10.007 - 10.005) + (10.007 - 10.006))
    ) < 1e-12
    # Transit observed separately, only for frames carrying a span.
    assert abs(record["transit_sum"] - ((10.0 - 9.9) + (10.0 - 9.95))) < 1e-12

    # Every ack-path stage histogram saw all three frames.
    state = registry.snapshot_state()["histograms"]
    for stage in ACK_STAGES:
        key = f'repro_stage_seconds{{stage="{stage}"}}'
        assert state[key]["count"] == 3
    assert state['repro_stage_seconds{stage="transit"}']["count"] == 2
    assert state["repro_ack_e2e_seconds"]["count"] == 3


def test_frame_without_open_cohort_becomes_its_own():
    tracker = SpanTracker(MetricsRegistry())
    tracker.note_frame("s1", "admitted", 5.0, 5.001, eid=9)
    record = tracker.seal_cohort(5.002, 5.003, 5.004, 5.005)
    assert record["frames"] == 1
    # Implicit cohort opened at t_start: the queue stage is zero.
    assert record["stage_sums"]["queue"] == 0.0
    assert abs(sum(record["stage_sums"].values()) - record["e2e_sum"]) < 1e-12


def test_seal_without_frames_records_nothing():
    tracker = SpanTracker(MetricsRegistry())
    tracker.open_cohort(1.0)
    assert tracker.seal_cohort(1.05, 1.1, 1.2, 1.3) is None
    assert tracker.sealed_cohorts == 0


def test_drop_cohort_discards_open_frames():
    registry = MetricsRegistry()
    tracker = SpanTracker(registry)
    tracker.open_cohort(1.0)
    tracker.note_frame("s1", "admitted", 1.001, 1.002, eid=1)
    tracker.drop_cohort()
    assert tracker.seal_cohort(1.05, 1.1, 1.2, 1.3) is None
    state = registry.snapshot_state()["histograms"]
    assert state["repro_ack_e2e_seconds"]["count"] == 0


def test_emit_path_closes_inflight_spans():
    registry = MetricsRegistry()
    tracker = SpanTracker(registry)
    tracker.open_cohort(2.0)
    tracker.note_frame("s1", "admitted", 2.001, 2.002, t_sent=1.9, eid=11)
    tracker.note_frame("s1", "admitted", 2.003, 2.004, eid=12)
    tracker.seal_cohort(2.005, 2.006, 2.007, 2.008)

    tracker.note_emitted([11, 12, 999], 2.5)  # unknown eids are ignored
    tracker.note_emitted([11, 12], 2.6)  # closed spans stay closed
    state = registry.snapshot_state()["histograms"]
    assert state["repro_emit_hold_seconds"]["count"] == 2
    # Measured from each frame's own admission.
    assert abs(
        state["repro_emit_hold_seconds"]["total"] - ((2.5 - 2.002) + (2.5 - 2.004))
    ) < 1e-9
    # Only the frame that carried a client span gets an e2e observation.
    assert state["repro_emit_e2e_seconds"]["count"] == 1


def test_inflight_map_is_bounded_fifo():
    registry = MetricsRegistry()
    tracker = SpanTracker(registry, inflight_limit=4)
    for eid in range(10):
        tracker.note_frame("s1", "admitted", 1.0, 1.0, eid=eid)
    hold = lambda: registry.snapshot_state()["histograms"]["repro_emit_hold_seconds"]
    tracker.note_emitted(list(range(6)), 2.0)  # the oldest were evicted
    assert hold()["count"] == 0
    tracker.note_emitted(list(range(10)), 2.0)
    assert hold()["count"] == 4


def test_cohort_ring_is_bounded():
    tracker = SpanTracker(MetricsRegistry(), cohort_limit=3)
    for i in range(7):
        tracker.open_cohort(float(i))
        tracker.note_frame("s1", "admitted", i + 0.1, i + 0.2)
        tracker.seal_cohort(i + 0.3, i + 0.4, i + 0.5, i + 0.6)
    assert tracker.sealed_cohorts == 7
    assert len(tracker.cohorts) == 3
    assert tracker.cohorts[0]["t_receipt"] == 4.0


def test_source_lag_panel_gauges():
    registry = MetricsRegistry()
    panel = SourceLagPanel(registry)
    panel.update({"a": 40, "b": 25}, {"a": False, "b": True}, merged=25)
    text = render_prometheus(registry)
    samples = parse_prometheus(text)
    assert samples['repro_source_watermark{source="a"}'] == 40
    assert samples['repro_source_lag{source="a"}'] == 0
    assert samples['repro_source_lag{source="b"}'] == 15
    assert samples['repro_source_fenced{source="b"}'] == 1
    assert samples["repro_gateway_merged_watermark"] == 25
    # HELP/TYPE are emitted once per base name, not per labelled child.
    assert text.count("# TYPE repro_source_lag gauge") == 1

    # Refreshing reuses the registered gauges (no duplicate-name error).
    panel.update({"a": 41, "b": 41}, {"a": False, "b": False}, merged=41)
    samples = parse_prometheus(render_prometheus(registry))
    assert samples['repro_source_lag{source="b"}'] == 0
    assert samples['repro_source_fenced{source="b"}'] == 0
