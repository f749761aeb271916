"""Punctuation injectors (repro.streams.punctuation)."""

import pytest

from repro import ConfigurationError, Event, Punctuation
from repro.streams import (
    PeriodicPunctuator,
    RandomDelayModel,
    SyntheticSource,
    strip_punctuation,
    validate_punctuation,
)


@pytest.fixture
def events():
    return SyntheticSource(["A", "B"], 200, seed=1).take(200)


class TestPeriodicPunctuator:
    def test_inserts_every_period(self, events):
        elements = list(PeriodicPunctuator(period=10).apply(events))
        punctuations = [e for e in elements if isinstance(e, Punctuation)]
        assert len(punctuations) == 20

    def test_events_preserved_in_order(self, events):
        elements = list(PeriodicPunctuator(period=7).apply(events))
        assert strip_punctuation(elements) == events

    def test_assertions_valid_on_ordered_stream(self, events):
        elements = list(PeriodicPunctuator(period=10).apply(events))
        assert validate_punctuation(elements)

    def test_assertions_valid_with_slack_on_disordered_stream(self, events):
        arrival = RandomDelayModel(0.4, 15, seed=2).apply(events)
        elements = list(PeriodicPunctuator(period=10, slack=15).apply(arrival))
        assert validate_punctuation(elements)

    def test_no_slack_on_disordered_stream_invalid(self, events):
        arrival = RandomDelayModel(0.6, 25, seed=3).apply(events)
        elements = list(PeriodicPunctuator(period=5, slack=0).apply(arrival))
        assert not validate_punctuation(elements)

    def test_monotone_assertions(self, events):
        elements = list(PeriodicPunctuator(period=3).apply(events))
        asserted = [e.ts for e in elements if isinstance(e, Punctuation)]
        assert asserted == sorted(asserted)
        assert len(set(asserted)) == len(asserted)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PeriodicPunctuator(period=0)
        with pytest.raises(ConfigurationError):
            PeriodicPunctuator(period=5, slack=-1)


class TestEngineIntegration:
    def test_punctuated_stream_lets_unbounded_engine_purge(self, events):
        from repro import OutOfOrderEngine, parse

        pattern = parse("PATTERN SEQ(A a, B b) WITHIN 10")
        with_punct = OutOfOrderEngine(pattern)  # no K promise
        with_punct.feed_batch(PeriodicPunctuator(period=10, slack=0).apply(events))
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
