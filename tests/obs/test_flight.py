"""Flight recorder: the ring, the dump round-trip, and stall verdicts."""

from __future__ import annotations

import json

from repro.obs.flight import (
    STALL_BACKPRESSURE,
    STALL_FENCED,
    STALL_NONE,
    STALL_REORDER_HOLD,
    STALL_WAL_SYNC,
    FlightRecorder,
    analyze_flight,
    load_flight,
    render_flight_lines,
)


def _steady(recorder, t0=0.0, n=20):
    """A healthy baseline: admissions, watermark moves, quick syncs."""
    for i in range(n):
        t = t0 + i
        recorder.note(t, "admit", "s1", value=i)
        recorder.note(t + 0.1, "watermark", value=i)
        recorder.note(t + 0.2, "sync", value=200)  # 0.2 ms commits


def test_ring_is_bounded_and_counts_drops():
    recorder = FlightRecorder(capacity=8)
    for i in range(20):
        recorder.note(float(i), "admit", "s1", value=i)
    assert len(recorder) == 8
    assert recorder.recorded == 20
    assert recorder.dropped == 12
    __, records = load_flight("\n".join(recorder.dump_lines("probe")))
    assert records[0].value == 12  # oldest survivor


def test_dump_and_load_round_trip():
    recorder = FlightRecorder()
    recorder.note(1.0, "admit", "s1", value=5)
    recorder.note(2.0, "fence", "s2", detail="silent 3.0s")
    recorder.note(3.0, "crash", value=17)
    lines = recorder.dump_lines("crash", meta={"stream": "orders"})
    header = json.loads(lines[0])
    assert header["flight"] == 1
    assert header["reason"] == "crash"
    assert header["records"] == 3
    assert header["stream"] == "orders"

    parsed_header, records = load_flight("\n".join(lines))
    assert parsed_header == header
    assert [r.kind for r in records] == ["admit", "fence", "crash"]
    assert records[1].source == "s2"
    assert records[1].detail == "silent 3.0s"


def test_load_skips_torn_trailing_line_and_blank_lines():
    recorder = FlightRecorder()
    recorder.note(1.0, "admit", "s1")
    text = "\n" + "\n".join(recorder.dump_lines("sigterm")) + '\n{"t": 2.0, "ki'
    header, records = load_flight(text)
    assert header["reason"] == "sigterm"
    assert len(records) == 1


def test_verdict_backpressure_wins():
    recorder = FlightRecorder()
    _steady(recorder)
    # Busy refusals in the final quarter beat everything else.
    recorder.note(19.5, "fence", "s2")
    recorder.note(19.6, "busy", "s1", value=9700)
    header, records = load_flight("\n".join(recorder.dump_lines("crash")))
    report = analyze_flight(header, records)
    assert report.verdict == STALL_BACKPRESSURE
    assert "0.97" in report.cause


def test_verdict_fenced_source_with_stalled_watermark():
    recorder = FlightRecorder()
    _steady(recorder, n=10)
    recorder.note(12.0, "fence", "s2")
    recorder.note(13.0, "sync", value=180)  # watermark never moves again
    header, records = load_flight("\n".join(recorder.dump_lines("sigterm")))
    report = analyze_flight(header, records)
    assert report.verdict == STALL_FENCED
    assert "s2" in report.cause


def test_unfence_clears_the_fence_verdict():
    recorder = FlightRecorder()
    _steady(recorder, n=10)
    recorder.note(3.0, "fence", "s2")
    recorder.note(4.0, "unfence", "s2")
    header, records = load_flight("\n".join(recorder.dump_lines("manual")))
    report = analyze_flight(header, records)
    assert report.verdict != STALL_FENCED


def test_verdict_slow_wal_sync():
    recorder = FlightRecorder()
    _steady(recorder)
    recorder.note(19.9, "sync", value=80_000)  # 80 ms against a 0.2 ms median
    header, records = load_flight("\n".join(recorder.dump_lines("crash")))
    report = analyze_flight(header, records)
    assert report.verdict == STALL_WAL_SYNC
    assert "80.0 ms" in report.cause


def test_verdict_reorder_hold():
    recorder = FlightRecorder()
    _steady(recorder)
    recorder.note(19.9, "hold", value=12, detail="134")
    header, records = load_flight("\n".join(recorder.dump_lines("crash")))
    report = analyze_flight(header, records)
    assert report.verdict == STALL_REORDER_HOLD
    assert "12" in report.cause and "134" in report.cause


def test_verdict_none_apparent_on_healthy_tail():
    recorder = FlightRecorder()
    _steady(recorder)
    header, records = load_flight("\n".join(recorder.dump_lines("sigterm")))
    report = analyze_flight(header, records)
    assert report.verdict == STALL_NONE


def test_empty_recording():
    header, records = load_flight("")
    report = analyze_flight(header, records)
    assert report.verdict == STALL_NONE
    assert report.records == 0


def test_render_lines_name_the_stall_and_sources():
    recorder = FlightRecorder()
    _steady(recorder, n=5)
    recorder.note(6.0, "fence", "s1")
    header, records = load_flight("\n".join(recorder.dump_lines("crash")))
    lines = render_flight_lines(header, records)
    assert lines[0].startswith("flight recording:")
    assert any("source 's1'" in line for line in lines)
    assert lines[-1].startswith("proximate stall:")


def test_timelines_are_per_source_and_bounded():
    recorder = FlightRecorder()
    for i in range(50):
        recorder.note(float(i), "admit", "s%d" % (i % 2))
    header, records = load_flight("\n".join(recorder.dump_lines("manual")))
    report = analyze_flight(header, records, last=5)
    assert sorted(report.timelines) == ["s0", "s1"]
    assert all(len(entries) == 5 for entries in report.timelines.values())
    # Oldest-first within each timeline.
    for entries in report.timelines.values():
        assert [r.t for r in entries] == sorted(r.t for r in entries)
