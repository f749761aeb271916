"""Stock-tick workload (repro.workloads.stock)."""

import pytest

from repro import ConfigurationError, OfflineOracle, OutOfOrderEngine
from repro.workloads import StockFeedGenerator, accumulation_query


@pytest.fixture(scope="module")
def feed():
    return StockFeedGenerator(count=2000, seed=13).generate()


class TestGenerator:
    def test_deterministic(self):
        first = StockFeedGenerator(count=100, seed=1).generate()
        second = StockFeedGenerator(count=100, seed=1).generate()
        # eids are globally sequential, so determinism is content-level
        assert [(e.etype, e.ts, e.attrs) for e in first] == [
            (e.etype, e.ts, e.attrs) for e in second
        ]

    def test_occurrence_order(self, feed):
        timestamps = [e.ts for e in feed]
        assert timestamps == sorted(timestamps)

    def test_prices_positive(self, feed):
        assert all(e["price"] >= 1 for e in feed if e.etype == "TICK")

    def test_trades_have_volume(self, feed):
        trades = [e for e in feed if e.etype == "TRADE"]
        assert trades
        assert all(e["volume"] >= 1 for e in trades)

    def test_symbols_from_alphabet(self, feed):
        symbols = {e["sym"] for e in feed}
        assert symbols <= {"IBM", "ORCL", "MSFT", "DELL"}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StockFeedGenerator(symbols=[])
        with pytest.raises(ConfigurationError):
            StockFeedGenerator(trade_rate=2.0)
        with pytest.raises(ConfigurationError):
            StockFeedGenerator(volatility=0)
        with pytest.raises(ConfigurationError):
            StockFeedGenerator(count=-1)


class TestQueries:
    def test_engine_agrees_with_oracle_on_feed(self, feed):
        query = accumulation_query(within=25)
        sample = feed[:400]
        truth = OfflineOracle(query).evaluate_set(sample)
        engine = OutOfOrderEngine(query, k=0)
        engine.run(sample)
        assert engine.result_set() == truth
