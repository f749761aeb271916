"""Latency metrics (repro.metrics.latency)."""

import pytest

from repro import Event, OutOfOrderEngine, ReorderingEngine, seq
from repro.metrics import (
    LatencySummary,
    arrival_latencies,
    occurrence_latencies,
    summarize_arrival_latency,
    summarize_occurrence_latency,
)
from repro.metrics.latency import percentile_index
from helpers import make_events


class TestPercentileIndex:
    """ceil(q*n)-1 rank — the library-wide quantile convention."""

    def test_single_element(self):
        # n=1: every quantile must land on the only element.
        for q in (0.01, 0.5, 0.99, 1.0):
            assert percentile_index(1, q) == 0

    def test_two_elements_median_is_lower(self):
        # n=2, q=0.5: ceil(1)-1 = 0, the lower of the two.  The old
        # floor rank int(0.5*2)=1 picked the max instead.
        assert percentile_index(2, 0.5) == 0

    def test_two_elements_top_quantile_is_max(self):
        assert percentile_index(2, 1.0) == 1

    def test_full_quantile_is_last_index(self):
        for n in (1, 2, 3, 10, 100):
            assert percentile_index(n, 1.0) == n - 1

    def test_index_always_in_range(self):
        for n in range(1, 20):
            for q in (0.001, 0.25, 0.5, 0.9, 0.99, 1.0):
                assert 0 <= percentile_index(n, q) < n

    def test_monotone_in_quantile(self):
        for n in (2, 5, 17):
            ranks = [percentile_index(n, q) for q in (0.1, 0.5, 0.9, 1.0)]
            assert ranks == sorted(ranks)


class TestLatencySummary:
    def test_empty_sample(self):
        summary = LatencySummary([])
        assert summary.count == 0
        assert summary.mean == summary.p50 == summary.max == 0.0

    def test_single_value(self):
        summary = LatencySummary([7])
        assert summary.mean == 7
        assert summary.p50 == 7
        assert summary.p99 == 7
        assert summary.max == 7

    def test_percentiles_ordered(self):
        summary = LatencySummary(range(100))
        assert summary.p50 <= summary.p90 <= summary.p99 <= summary.max
        assert summary.p50 == 49
        assert summary.max == 99

    def test_unsorted_input_handled(self):
        assert LatencySummary([5, 1, 3]).max == 5


class TestArrivalLatency:
    def test_immediate_emission_is_zero(self, plain_seq2):
        engine = OutOfOrderEngine(plain_seq2, k=0)
        arrival = make_events("A1 B2")
        engine.run(arrival)
        assert arrival_latencies(engine.emissions, arrival) == [0]

    def test_reorder_buffer_adds_latency(self, plain_seq2):
        arrival = make_events("A1 B2") + [Event("Z", ts) for ts in range(3, 30)]
        engine = ReorderingEngine(plain_seq2, k=10)
        engine.run(arrival)
        latencies = arrival_latencies(engine.emissions, arrival)
        assert len(latencies) == 1
        assert latencies[0] > 0  # held until clock passed 2 + K

    def test_negation_hold_counted(self):
        pattern = seq("A a", "!B b", "C c", within=10)
        arrival = make_events("A1 C5") + [Event("Z", ts) for ts in range(6, 30)]
        engine = OutOfOrderEngine(pattern, k=10)
        engine.run(arrival)
        latencies = arrival_latencies(engine.emissions, arrival)
        assert latencies and latencies[0] > 0

    def test_summary_wrapper(self, plain_seq2):
        engine = OutOfOrderEngine(plain_seq2, k=0)
        arrival = make_events("A1 B2 A3 B4")
        engine.run(arrival)
        summary = summarize_arrival_latency(engine.emissions, arrival)
        assert summary.count == len(engine.results)
        assert summary.mean == 0.0


class TestOccurrenceLatency:
    def test_zero_when_emitted_at_match_end(self, plain_seq2):
        engine = OutOfOrderEngine(plain_seq2, k=0)
        engine.run(make_events("A1 B2"))
        assert occurrence_latencies(engine.emissions) == [0]

    def test_positive_when_clock_moved_on(self):
        pattern = seq("A a", "!B b", "C c", within=10)
        engine = OutOfOrderEngine(pattern, k=5)
        engine.run(make_events("A1 C5 Z40"))
        latencies = occurrence_latencies(engine.emissions)
        assert latencies and latencies[0] == 35  # emitted at clock 40, end_ts 5

    def test_summary_wrapper(self, plain_seq2):
        engine = OutOfOrderEngine(plain_seq2, k=0)
        engine.run(make_events("A1 B2"))
        assert summarize_occurrence_latency(engine.emissions).count == 1
