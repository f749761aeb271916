"""Buffer-and-sort baseline (repro.core.reorder)."""

import pytest

from repro import (
    ConfigurationError,
    Event,
    OfflineOracle,
    Punctuation,
    ReorderingEngine,
    seq,
)
from repro.metrics import summarize_arrival_latency
from helpers import bounded_shuffle, make_events


class TestCorrectness:
    def test_exact_on_ordered_input(self, abc_pattern, random_trace):
        truth = OfflineOracle(abc_pattern).evaluate_set(random_trace)
        engine = ReorderingEngine(abc_pattern, k=10)
        engine.run(random_trace)
        assert engine.result_set() == truth

    @pytest.mark.parametrize("seed", range(5))
    def test_exact_under_bounded_disorder(self, abc_pattern, random_trace, seed):
        arrival = bounded_shuffle(random_trace, k=15, seed=seed)
        truth = OfflineOracle(abc_pattern).evaluate_set(random_trace)
        engine = ReorderingEngine(abc_pattern, k=15)
        engine.run(arrival)
        assert engine.result_set() == truth

    def test_exact_with_negation_under_disorder(self, neg_pattern, random_trace):
        arrival = bounded_shuffle(random_trace, k=12, seed=9)
        truth = OfflineOracle(neg_pattern).evaluate_set(random_trace)
        engine = ReorderingEngine(neg_pattern, k=12)
        engine.run(arrival)
        assert engine.result_set() == truth

    def test_close_flushes_buffer(self, plain_seq2):
        engine = ReorderingEngine(plain_seq2, k=100)
        engine.feed_batch(make_events("A1 B3"))
        assert engine.results == []  # everything still buffered
        engine.close()
        assert len(engine.results) == 1

    def test_inner_engine_sees_sorted_stream(self, plain_seq2):
        engine = ReorderingEngine(plain_seq2, k=50)
        arrival = make_events("B9 A1 B3 A2 B30 A25 B60 A55 Z100")
        engine.run(arrival)
        assert engine.inner.stats.out_of_order_events == 0


class TestConfig:
    def test_requires_concrete_k(self, plain_seq2):
        with pytest.raises(ConfigurationError):
            ReorderingEngine(plain_seq2, k=None)
        with pytest.raises(ConfigurationError):
            ReorderingEngine(plain_seq2, k=-1)

    def test_k_zero_is_passthrough(self, plain_seq2, random_trace):
        engine = ReorderingEngine(plain_seq2, k=0)
        engine.run(random_trace)
        truth = OfflineOracle(plain_seq2).evaluate_set(random_trace)
        assert engine.result_set() == truth


class TestCosts:
    def test_buffer_holds_about_k_worth_of_events(self, plain_seq2):
        engine = ReorderingEngine(plain_seq2, k=100)
        engine.feed_batch(Event("Z", ts) for ts in range(1, 1001))
        # one event per time unit: buffer ≈ K events (+/- release boundary)
        assert 90 <= engine.buffer_peak <= 110

    def test_latency_grows_with_k(self, plain_seq2, random_trace):
        def mean_latency(k):
            engine = ReorderingEngine(plain_seq2, k=k)
            engine.run(random_trace)
            return summarize_arrival_latency(engine.emissions, random_trace).mean

        assert mean_latency(0) <= mean_latency(50) <= mean_latency(200)
        assert mean_latency(200) > mean_latency(0)

    def test_late_events_dropped_not_crashed(self, plain_seq2):
        engine = ReorderingEngine(plain_seq2, k=5)
        engine.feed(Event("A", 100))
        engine.feed(Event("B", 2))  # violates K=5
        assert engine.stats.late_dropped == 1

    def test_state_size_includes_buffer(self, plain_seq2):
        engine = ReorderingEngine(plain_seq2, k=1000)
        engine.feed_batch(make_events("A1 B2 A3"))
        assert engine.state_size() >= 3


class TestPunctuationFlush:
    def test_punctuation_releases_buffer(self, plain_seq2):
        engine = ReorderingEngine(plain_seq2, k=1000)
        engine.feed_batch(make_events("A1 B3"))
        assert engine.results == []
        emitted = engine.feed(Punctuation(3))
        assert len(emitted) == 1
