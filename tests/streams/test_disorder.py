"""Disorder models (repro.streams.disorder)."""

import pytest

from repro import ConfigurationError, Event
from repro.streams import (
    BurstDropoutModel,
    NoDisorder,
    RandomDelayModel,
    SyntheticSource,
    measure_disorder,
    required_k,
)


@pytest.fixture
def ordered_events():
    return SyntheticSource(["A", "B", "C"], 500, seed=5).take(500)


class TestMeasurement:
    def test_ordered_stream_has_zero_disorder(self, ordered_events):
        stats = measure_disorder(ordered_events)
        assert stats.rate == 0.0
        assert stats.max_delay == 0

    def test_single_inversion_measured(self):
        events = [Event("A", 1), Event("A", 10), Event("A", 4)]
        stats = measure_disorder(events)
        assert stats.displaced == 1
        assert stats.max_delay == 6

    def test_rate_fraction(self):
        events = [Event("A", 2), Event("A", 1), Event("A", 3), Event("A", 4)]
        assert measure_disorder(events).rate == 0.25

    def test_ties_not_displaced(self):
        events = [Event("A", 1), Event("A", 1), Event("A", 2)]
        assert measure_disorder(events).displaced == 0

    def test_empty_stream(self):
        stats = measure_disorder([])
        assert stats.total == 0 and stats.rate == 0.0

    def test_required_k_equals_max_delay(self):
        events = [Event("A", 10), Event("A", 3), Event("A", 12), Event("A", 5)]
        assert required_k(events) == 7


class TestModelInvariants:
    """Every model must preserve the event multiset exactly."""

    @pytest.mark.parametrize(
        "model",
        [
            NoDisorder(),
            RandomDelayModel(0.3, 20, seed=1),
            RandomDelayModel(1.0, 5, seed=2),
            BurstDropoutModel(0.02, 25, seed=3),
        ],
    )
    def test_permutation_only(self, ordered_events, model):
        arrival = model.apply(ordered_events)
        assert sorted(e.eid for e in arrival) == sorted(e.eid for e in ordered_events)
        assert len(arrival) == len(ordered_events)

    @pytest.mark.parametrize(
        "model",
        [RandomDelayModel(0.3, 20, seed=1), BurstDropoutModel(0.02, 25, seed=3)],
    )
    def test_deterministic(self, ordered_events, model):
        first = [e.eid for e in model.apply(ordered_events)]
        second = [e.eid for e in model.apply(ordered_events)]
        assert first == second


class TestRandomDelayModel:
    def test_zero_rate_is_identity(self, ordered_events):
        arrival = RandomDelayModel(0.0, 50, seed=1).apply(ordered_events)
        assert [e.eid for e in arrival] == [e.eid for e in ordered_events]

    def test_delay_bounded_by_max_delay(self, ordered_events):
        model = RandomDelayModel(0.5, 15, seed=2)
        arrival = model.apply(ordered_events)
        assert required_k(arrival) <= 15

    def test_higher_rate_more_disorder(self, ordered_events):
        low = measure_disorder(RandomDelayModel(0.1, 20, seed=3).apply(ordered_events))
        high = measure_disorder(RandomDelayModel(0.6, 20, seed=3).apply(ordered_events))
        assert high.rate > low.rate

    def test_arrange_reports_stats(self, ordered_events):
        arrival, stats = RandomDelayModel(0.3, 10, seed=4).arrange(ordered_events)
        assert stats.total == len(arrival)
        assert stats.rate > 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RandomDelayModel(1.5, 10)
        with pytest.raises(ConfigurationError):
            RandomDelayModel(0.5, -1)


class TestBurstDropoutModel:
    def test_produces_bursty_disorder(self, ordered_events):
        model = BurstDropoutModel(0.05, 30, seed=5)
        arrival, stats = model.arrange(ordered_events)
        assert stats.displaced > 0

    def test_zero_fail_rate_is_identity(self, ordered_events):
        arrival = BurstDropoutModel(0.0, 30, seed=1).apply(ordered_events)
        assert [e.eid for e in arrival] == [e.eid for e in ordered_events]

    def test_outage_length_bounds_burst_delay(self, ordered_events):
        # One event per unit: displacement bounded by outage span.
        arrival = BurstDropoutModel(0.05, 10, affected=1.0, seed=6).apply(ordered_events)
        # affected=1.0 buffers everything during outage -> order preserved
        assert measure_disorder(arrival).displaced == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BurstDropoutModel(2.0, 10)
        with pytest.raises(ConfigurationError):
            BurstDropoutModel(0.1, 0)
        with pytest.raises(ConfigurationError):
            BurstDropoutModel(0.1, 10, affected=-0.5)
