"""Star-network arrival (repro.streams.disorder.star_arrival)."""

import pytest

from repro import ConfigurationError, Event, OfflineOracle, OutOfOrderEngine, parse
from repro.streams import SyntheticSource, measure_disorder, required_k, star_arrival


def star_streams(n=3, count=100, interval=2):
    return {
        f"s{i}": SyntheticSource(["A", "B", "C"], count, seed=i, interval=interval).take(count)
        for i in range(n)
    }


def transits(streams, delay, outages=None, seed=0):
    """Arrival time minus send time, per eid."""
    arrival, times = star_arrival(streams, delay, outages, seed=seed)
    return {event.eid: t - event.ts for event, t in zip(arrival, times)}


def arrival_times(sent, outages, delay=(0, 0)):
    """Arrival time of each event sent at *sent* from one source ``n``."""
    events = [Event("A", ts) for ts in sent]
    arrival, times = star_arrival({"n": events}, delay, outages)
    by_eid = dict(zip((event.eid for event in arrival), times))
    return [by_eid[event.eid] for event in events]


class TestDeliveryMechanics:
    def test_constant_delay_shifts_every_event_without_reordering(self):
        streams = {"s0": SyntheticSource(["A"], 50, seed=1).take(50)}
        arrival, _times = star_arrival(streams, (10, 10))
        assert measure_disorder(arrival).displaced == 0
        assert set(transits(streams, (10, 10)).values()) == {10}

    def test_constant_delay_ignores_the_seed(self):
        streams = star_streams(2)
        assert transits(streams, (7, 7), seed=1) == transits(streams, (7, 7), seed=2)

    def test_uniform_delay_within_bounds(self):
        streams = {"s0": [Event("A", ts) for ts in range(0, 5000, 10)]}
        delays = list(transits(streams, (3, 9), seed=42).values())
        assert min(delays) >= 3 and max(delays) <= 9
        assert len(set(delays)) > 3  # actually varies

    def test_jitter_on_one_source_preserves_fifo(self):
        streams = {"s0": SyntheticSource(["A"], 200, seed=1).take(200)}
        arrival, times = star_arrival(streams, (0, 50))
        # A link is FIFO: one source can never reorder itself.
        assert measure_disorder(arrival).displaced == 0
        assert [e.eid for e in arrival] == [e.eid for e in streams["s0"]]
        assert times == sorted(times)

    def test_cross_source_jitter_causes_disorder(self):
        arrival, _times = star_arrival(star_streams(4), (0, 40), seed=3)
        assert measure_disorder(arrival).displaced > 0

    def test_event_set_preserved(self):
        streams = star_streams(3)
        arrival, times = star_arrival(streams, (0, 20), seed=4)
        sent = sorted(e.eid for events in streams.values() for e in events)
        assert sorted(e.eid for e in arrival) == sent
        assert len(times) == len(arrival)

    def test_seeded_determinism(self):
        streams = star_streams(3)
        first = star_arrival(streams, (0, 20), seed=9)
        second = star_arrival(streams, (0, 20), seed=9)
        assert [e.eid for e in first[0]] == [e.eid for e in second[0]]
        assert first[1] == second[1]

    def test_same_seed_same_uniform_delays(self):
        streams = {"s0": [Event("A", ts) for ts in range(0, 1000, 10)]}
        first = transits(streams, (0, 100), seed=7)
        assert first == transits(streams, (0, 100), seed=7)
        assert first != transits(streams, (0, 100), seed=8)

    def test_ties_break_by_source_then_eid(self):
        streams = {
            "b": [Event("B", 5)],
            "a": [Event("A", 5), Event("A", 5)],
        }
        arrival, times = star_arrival(streams, (1, 1))
        assert times == [6, 6, 6]
        assert arrival == streams["a"] + streams["b"]

    def test_unordered_input_stream_rejected(self):
        with pytest.raises(ConfigurationError, match="occurrence order"):
            star_arrival({"s0": [Event("A", 5), Event("A", 3)]}, (0, 0))

    @pytest.mark.parametrize("delay", [(-1, 5), (5, 3)])
    def test_bad_delay_rejected(self, delay):
        with pytest.raises(ConfigurationError):
            star_arrival({"s0": [Event("A", 1)]}, delay)


class TestOutages:
    def test_event_sent_outside_an_outage_is_not_held(self):
        assert arrival_times([5, 20], {"n": [(10, 20)]}) == [5, 20]

    def test_source_outage_holds_until_recovery(self):
        assert arrival_times([10, 15, 19], {"n": [(10, 20)]}) == [20, 20, 20]

    def test_delay_is_added_after_the_hold(self):
        assert arrival_times([12], {"n": [(10, 20)]}, delay=(3, 3)) == [23]

    def test_node_without_outages_is_never_held(self):
        assert arrival_times([7], {"other": [(0, 100)]}) == [7]

    def test_each_of_many_outages_holds_its_own_events(self):
        outages = {"n": [(start, start + 5) for start in range(0, 100, 20)]}
        assert arrival_times([41, 46], outages) == [45, 46]

    def test_outages_in_any_order(self):
        assert arrival_times([12, 33], {"n": [(30, 40), (10, 20)]}) == [20, 40]

    def test_adjacent_outages_allowed(self):
        # Not merged: an event is held by the interval it was sent in.
        assert arrival_times([15], {"n": [(10, 20), (20, 30)]}) == [20]

    def test_sink_outage_holds_the_arrival(self):
        assert arrival_times([5], {"sink": [(0, 100)]}) == [100]

    def test_failure_burst_creates_disorder_across_sources(self):
        streams = star_streams(2, count=200, interval=1)
        arrival, _times = star_arrival(streams, (0, 0), {"s0": [(50, 120)]})
        assert measure_disorder(arrival).max_delay >= 60

    def test_empty_outage_rejected(self):
        with pytest.raises(ConfigurationError, match="empty outage"):
            star_arrival({"n": [Event("A", 1)]}, (0, 0), {"n": [(10, 10)]})

    def test_overlapping_outage_rejected(self):
        with pytest.raises(ConfigurationError, match="overlapping outage"):
            star_arrival({"n": [Event("A", 1)]}, (0, 0), {"n": [(10, 20), (15, 25)]})


class TestEndToEndWithEngine:
    def test_engine_at_required_k_matches_oracle(self):
        arrival, _times = star_arrival(star_streams(4, count=150), (0, 30), seed=6)
        pattern = parse("PATTERN SEQ(A a, B b, C c) WITHIN 15")
        truth = OfflineOracle(pattern).evaluate_set(arrival)
        engine = OutOfOrderEngine(pattern, k=required_k(arrival))
        engine.run(arrival)
        assert engine.result_set() == truth
        assert engine.stats.late_dropped == 0
