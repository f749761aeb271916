"""Punctuated streams (repro.streams.punctuation)."""

import pytest

from repro import Event, Punctuation
from repro.streams import SyntheticSource, validate_punctuation


@pytest.fixture
def events():
    return SyntheticSource(["A", "B"], 200, seed=1).take(200)


class TestEngineIntegration:
    def test_punctuated_stream_lets_unbounded_engine_purge(self, events):
        from repro import OutOfOrderEngine, parse

        pattern = parse("PATTERN SEQ(A a, B b) WITHIN 10")
        with_punct = OutOfOrderEngine(pattern)  # no K promise
        # The source is ordered: after each event, nothing older remains.
        with_punct.feed_batch([x for e in events for x in (e, Punctuation(e.ts - 1))])
        without = OutOfOrderEngine(pattern)
        without.feed_batch(events)
        assert with_punct.stats.peak_state_size < without.stats.peak_state_size
        with_punct.close()
        without.close()
        assert with_punct.result_set() == without.result_set()

    def test_validate_helper(self):
        good = [Event("A", 5), Punctuation(5), Event("A", 6)]
        bad = [Event("A", 5), Punctuation(5), Event("A", 5)]
        assert validate_punctuation(good)
        assert not validate_punctuation(bad)
