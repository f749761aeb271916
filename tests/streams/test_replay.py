"""Trace record/replay (repro.streams.replay)."""

import json

import pytest

from repro import Event, Punctuation, StreamError, OutOfOrderEngine, parse
from repro.core.recovery import _element_wal_line
from repro.streams import (
    RandomDelayModel,
    SyntheticSource,
    dump_trace,
    load_trace,
)


@pytest.fixture
def trace(tmp_path):
    return tmp_path / "trace.jsonl"


@pytest.fixture
def elements():
    events = SyntheticSource(["A", "B"], 50, seed=1).take(50)
    arrival = RandomDelayModel(0.3, 10, seed=2).apply(events)
    arrival.insert(10, Punctuation(5))
    return arrival


class TestRoundtrip:
    def test_dump_returns_count(self, elements, trace):
        assert dump_trace(elements, trace) == len(elements)

    def test_roundtrip_preserves_everything(self, elements, trace):
        dump_trace(elements, trace)
        loaded = load_trace(trace)
        assert [type(e) for e in loaded] == [type(e) for e in elements]
        for original, restored in zip(elements, loaded):
            if isinstance(original, Event):
                assert restored.key() == original.key()
                assert restored.attrs == original.attrs
            else:
                assert restored == original

    def test_loaded_events_keep_identity(self, elements, trace):
        dump_trace(elements, trace)
        loaded = load_trace(trace)
        originals = [e for e in elements if isinstance(e, Event)]
        restored = [e for e in loaded if isinstance(e, Event)]
        assert [e.key() for e in restored] == [e.key() for e in originals]
        assert [e.attrs for e in restored] == [e.attrs for e in originals]

    def test_punctuation_preserved(self, elements, trace):
        dump_trace(elements, trace)
        loaded = load_trace(trace)
        assert Punctuation(5) in loaded

    def test_replay_reproduces_engine_results(self, elements, trace):
        pattern = parse("PATTERN SEQ(A a, B b) WITHIN 10")
        original = OutOfOrderEngine(pattern, k=15)
        original.run(list(elements))
        dump_trace(elements, trace)
        replayed = OutOfOrderEngine(pattern, k=15)
        replayed.run(load_trace(trace))
        assert replayed.result_set() == original.result_set()
        assert replayed.stats.as_dict() == original.stats.as_dict()


class TestWalSegment:
    def test_trace_lines_are_wal_lines(self, elements, trace):
        dump_trace(elements, trace)
        header, *lines = trace.read_text().splitlines()
        assert json.loads(header) == {"format": "repro-trace-v2"}
        assert lines == [_element_wal_line(element) for element in elements]

    def test_v1_punctuation_still_loads(self, trace):
        trace.write_text(
            json.dumps({"format": "repro-trace-v1"})
            + "\n"
            + json.dumps({"kind": "punctuation", "ts": 7})
            + "\n"
        )
        assert load_trace(trace) == [Punctuation(7)]

    def test_v1_spelling_is_not_v2(self, trace):
        trace.write_text(
            json.dumps({"format": "repro-trace-v2"})
            + "\n"
            + json.dumps({"kind": "punctuation", "ts": 7})
            + "\n"
        )
        with pytest.raises(StreamError, match=r"trace.jsonl:2: unknown record kind"):
            load_trace(trace)


class TestFormatErrors:
    def test_missing_header(self, trace):
        trace.write_text("not json\n")
        with pytest.raises(StreamError):
            load_trace(trace)

    def test_wrong_format_tag(self, trace):
        trace.write_text(json.dumps({"format": "other"}) + "\n")
        with pytest.raises(StreamError, match="unsupported"):
            load_trace(trace)

    def test_bad_record_json(self, trace):
        trace.write_text(json.dumps({"format": "repro-trace-v1"}) + "\n{bad\n")
        with pytest.raises(StreamError, match="bad JSON"):
            load_trace(trace)

    def test_unknown_kind(self, trace):
        trace.write_text(
            json.dumps({"format": "repro-trace-v1"})
            + "\n"
            + json.dumps({"kind": "mystery"})
            + "\n"
        )
        with pytest.raises(StreamError, match="unknown record kind"):
            load_trace(trace)

    def test_bad_event_record(self, trace):
        trace.write_text(
            json.dumps({"format": "repro-trace-v1"})
            + "\n"
            + json.dumps({"kind": "event", "etype": "A"})
            + "\n"
        )
        with pytest.raises(StreamError, match="bad event record"):
            load_trace(trace)

    def test_blank_lines_skipped(self, trace, elements):
        dump_trace(elements, trace)
        content = trace.read_text().replace("\n", "\n\n")
        trace.write_text(content)
        assert len(load_trace(trace)) == len(elements)
