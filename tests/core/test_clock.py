"""Unit tests for StreamClock (repro.core.clock)."""

import pytest

from repro import ConfigurationError, Event, Punctuation, StreamClock


class TestClockBasics:
    def test_initial_state(self):
        clock = StreamClock(k=5)
        assert clock.now == -1
        assert clock.horizon() == -1

    def test_invalid_k_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamClock(k=-1)
        with pytest.raises(ConfigurationError):
            StreamClock(k=1.5)
        with pytest.raises(ConfigurationError):
            StreamClock(k=True)

    def test_observe_advances_now(self):
        clock = StreamClock(k=5)
        clock.observe(Event("A", 10))
        assert clock.now == 10

    def test_observe_reports_disorder(self):
        clock = StreamClock(k=5)
        assert clock.observe(Event("A", 10)) is False
        assert clock.observe(Event("A", 7)) is True
        assert clock.observe(Event("A", 10)) is False  # tie is not disorder
        assert clock.observe(Event("A", 11)) is False
        assert clock.now == 11

    def test_observation_count(self):
        clock = StreamClock()
        for ts in (1, 2, 3):
            clock.observe(Event("A", ts))
        assert clock.snapshot_state()["observations"] == 3


class TestHorizon:
    def test_horizon_lags_clock_by_k_plus_one(self):
        clock = StreamClock(k=5)
        clock.observe(Event("A", 10))
        assert clock.horizon() == 4  # events at ts<=4 can no longer arrive

    def test_k_zero_horizon(self):
        clock = StreamClock(k=0)
        clock.observe(Event("A", 10))
        assert clock.horizon() == 9

    def test_unbounded_k_never_advances_horizon(self):
        clock = StreamClock(k=None)
        clock.observe(Event("A", 1000))
        assert clock.horizon() == -1


class TestLateness:
    def test_event_above_horizon_not_late(self):
        clock = StreamClock(k=5)
        clock.observe(Event("A", 10))
        assert not clock.is_late(Event("B", 5))

    def test_event_at_or_below_horizon_is_late(self):
        clock = StreamClock(k=5)
        clock.observe(Event("A", 10))
        assert clock.is_late(Event("B", 4))
        assert clock.is_late(Event("B", 0))

    def test_in_order_stream_never_late_with_k_zero(self):
        clock = StreamClock(k=0)
        for ts in range(100):
            event = Event("A", ts)
            assert not clock.is_late(event)
            clock.observe(event)

    def test_first_event_never_late(self):
        assert not StreamClock(k=0).is_late(Event("A", 0))


class TestPunctuation:
    def test_punctuation_advances_horizon(self):
        clock = StreamClock(k=None)
        clock.observe(Event("A", 10))
        clock.observe_punctuation(Punctuation(7))
        assert clock.horizon() == 7

    def test_punctuation_never_regresses(self):
        clock = StreamClock(k=None)
        clock.observe_punctuation(Punctuation(7))
        clock.observe_punctuation(Punctuation(3))
        assert clock.horizon() == 7

    def test_punctuation_can_advance_now(self):
        clock = StreamClock(k=2)
        clock.observe_punctuation(Punctuation(50))
        assert clock.now == 50

    def test_horizon_is_max_of_k_and_punctuation(self):
        clock = StreamClock(k=2)
        clock.observe(Event("A", 10))  # k-horizon = 7
        clock.observe_punctuation(Punctuation(3))
        assert clock.horizon() == 7
        clock.observe_punctuation(Punctuation(9))
        assert clock.horizon() == 9


class TestReset:
    def test_repr_mentions_now_and_horizon(self):
        clock = StreamClock(k=5)
        clock.observe(Event("A", 10))
        assert "now=10" in repr(clock)
