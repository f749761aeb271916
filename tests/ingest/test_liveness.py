"""Per-source liveness: silence is bounded, fencing keeps seals moving."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError
from repro.ingest import LivenessTracker, SourceStatus
from repro.streams.punctuation import SourceWatermarks


# -- SourceWatermarks (the merge itself) ------------------------------------------------


def test_merged_watermark_is_min_over_sources():
    marks = SourceWatermarks(slack=0)
    marks.observe("s1", 10)
    marks.observe("s2", 4)
    assert marks.merged() == 3  # min(10, 4) - 0 - 1


def test_slack_trails_the_observation():
    marks = SourceWatermarks(slack=3)
    marks.observe("s1", 10)
    assert marks.merged() == 6


def test_per_source_marks_are_monotone():
    marks = SourceWatermarks(slack=0)
    marks.observe("s1", 10)
    marks.observe("s1", 5)  # out-of-order within the source
    assert marks.mark("s1") == 9


def test_fence_removes_a_source_from_the_merge():
    marks = SourceWatermarks(slack=0)
    marks.observe("s1", 100)
    marks.observe("s2", 5)
    assert marks.merged() == 4
    marks.fence("s2")
    assert marks.merged() == 99


def test_advance_emits_monotone_punctuation():
    marks = SourceWatermarks(slack=0)
    marks.observe("s1", 10)
    first = marks.advance()
    assert first is not None and first.ts == 9
    assert marks.advance() is None  # no progress, no punctuation
    marks.observe("s1", 12)
    second = marks.advance()
    assert second is not None and second.ts == 11


def test_unfence_floor_prevents_watermark_regression():
    marks = SourceWatermarks(slack=0)
    marks.observe("s1", 50)
    marks.observe("s2", 40)
    assert marks.advance().ts == 39
    marks.fence("s2")
    assert marks.advance().ts == 49
    # s2 reconnects claiming old progress; the floor pins it forward.
    marks.unfence("s2", floor=marks.emitted)
    marks.observe("s2", 10)
    assert marks.advance() is None
    assert marks.merged() == 49


def test_snapshot_round_trip():
    marks = SourceWatermarks(slack=1)
    marks.observe("s1", 10)
    marks.fence("s1")
    marks.observe("s2", 20)
    clone = SourceWatermarks(slack=1)
    clone.restore_state(marks.snapshot_state())
    assert clone.merged() == marks.merged()
    assert clone.is_fenced("s1")


# -- LivenessTracker --------------------------------------------------------------------


def test_silent_source_degrades_after_timeout():
    tracker = LivenessTracker(timeout=5.0)
    tracker.observe("s1", 10, now=0.0)
    tracker.observe("s2", 10, now=0.0)
    assert tracker.tick(4.0) == []
    transitions = tracker.tick(6.0)
    assert [t.source for t in transitions] == ["s1", "s2"]
    assert tracker.status_of("s1") is SourceStatus.DEGRADED
    assert tracker.degraded_total == 2


def test_degraded_source_is_fenced_out_of_the_merge():
    tracker = LivenessTracker(timeout=5.0)
    tracker.observe("fast", 100, now=0.0)
    tracker.observe("slow", 10, now=0.0)
    assert tracker.merged_watermark() == 9
    tracker.observe("fast", 110, now=6.0)  # keeps fast alive
    tracker.tick(6.0)
    assert tracker.status_of("slow") is SourceStatus.DEGRADED
    assert tracker.merged_watermark() == 109  # slow no longer stalls the seal


def test_degraded_source_recovers_on_next_frame():
    tracker = LivenessTracker(timeout=5.0)
    tracker.observe("s1", 10, now=0.0)
    tracker.tick(10.0)
    assert tracker.status_of("s1") is SourceStatus.DEGRADED
    recovery = tracker.observe("s1", 20, now=11.0)
    assert recovery is not None and recovery.status is SourceStatus.LIVE
    assert tracker.status_of("s1") is SourceStatus.LIVE
    assert tracker.recovered_total == 1


def test_reconnect_floor_prevents_punctuation_regression():
    tracker = LivenessTracker(timeout=5.0)
    tracker.observe("fast", 100, now=0.0)
    tracker.observe("slow", 90, now=0.0)
    assert tracker.watermarks.advance().ts == 89
    tracker.tick(10.0)  # both degrade; merge falls back to the furthest mark
    tracker.observe("fast", 110, now=10.5)
    assert tracker.watermarks.advance().ts == 109
    # slow recovers with ancient data: its floor is the emitted mark.
    tracker.observe("slow", 50, now=11.0)
    assert tracker.merged_watermark() >= 109


def test_disconnect_defers_fencing_to_the_timeout():
    """A torn connection alone never fences: retrying clients reconnect
    all the time, and an instant fence would floor them at the emitted
    mark, late-dropping their in-flight frames over a blip.  Only the
    silence timeout fences — connected or not."""
    tracker = LivenessTracker(timeout=5.0)
    tracker.connect("s1", now=0.0)
    tracker.observe("s1", 10, now=0.1)
    transition = tracker.disconnect("s1", now=1.0)
    assert transition is not None and transition.status is SourceStatus.DISCONNECTED
    assert not tracker.watermarks.is_fenced("s1")  # still within the timeout
    recovery = tracker.connect("s1", now=2.0)
    assert recovery is not None and recovery.status is SourceStatus.LIVE
    assert not tracker.watermarks.is_fenced("s1")


def test_disconnected_source_is_fenced_once_silent_past_timeout():
    tracker = LivenessTracker(timeout=5.0)
    tracker.observe("s1", 10, now=0.0)
    tracker.observe("s2", 100, now=0.0)
    tracker.disconnect("s1", now=1.0)
    assert tracker.tick(4.0) == []  # within the timeout: still holds the merge
    assert tracker.merged_watermark() == 9
    tracker.observe("s2", 101, now=3.0)  # s2 stays active
    degraded = tracker.tick(6.0)  # silence measured from last activity, not the tear
    assert [t.source for t in degraded] == ["s1"]
    assert tracker.watermarks.is_fenced("s1")
    assert tracker.merged_watermark() == 100


def test_disconnect_twice_records_once():
    tracker = LivenessTracker(timeout=5.0)
    tracker.connect("s1", now=0.0)
    assert tracker.disconnect("s1", now=1.0) is not None
    assert tracker.disconnect("s1", now=2.0) is None


def test_explicit_watermark_counts_as_activity():
    tracker = LivenessTracker(timeout=5.0)
    tracker.observe("s1", 10, now=0.0)
    tracker.assert_watermark("s1", 30, now=4.0)
    assert tracker.tick(8.0) == []  # the assertion reset the silence clock
    assert tracker.merged_watermark() == 30  # assertion is exact, no slack trail


def test_tick_transitions_are_deterministically_ordered():
    tracker = LivenessTracker(timeout=1.0)
    for source in ("zebra", "alpha", "mid"):
        tracker.observe(source, 5, now=0.0)
    transitions = tracker.tick(5.0)
    assert [t.source for t in transitions] == ["alpha", "mid", "zebra"]


def test_timeout_must_be_positive():
    with pytest.raises(ConfigurationError):
        LivenessTracker(timeout=0.0)


@pytest.mark.parametrize("timeout", [float("nan"), float("inf")])
def test_timeout_must_be_finite(timeout):
    # Under a NaN timeout `silence <= timeout` is never true: tick() would
    # degrade every source at once.
    with pytest.raises(ConfigurationError, match="finite"):
        LivenessTracker(timeout=timeout)
