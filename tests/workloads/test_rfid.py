"""RFID supply-chain workload (repro.workloads.rfid)."""

import pytest

from repro import ConfigurationError, OfflineOracle, OutOfOrderEngine
from repro.workloads import (
    RfidStoreGenerator,
    shoplifting_query,
)


@pytest.fixture(scope="module")
def trace():
    return RfidStoreGenerator(items=300, shoplift_rate=0.1, seed=11).generate()


class TestGenerator:
    def test_deterministic(self):
        first = RfidStoreGenerator(items=50, seed=3).generate()
        second = RfidStoreGenerator(items=50, seed=3).generate()
        # eids are globally sequential, so determinism is content-level
        assert [(e.etype, e.ts, e.attrs) for e in first.merged] == [
            (e.etype, e.ts, e.attrs) for e in second.merged
        ]
        assert first.shoplifted_tags == second.shoplifted_tags

    def test_streams_in_occurrence_order(self, trace):
        for events in trace.by_reader.values():
            timestamps = [e.ts for e in events]
            assert timestamps == sorted(timestamps)
        merged_ts = [e.ts for e in trace.merged]
        assert merged_ts == sorted(merged_ts)

    def test_merged_is_union_of_readers(self, trace):
        union = sorted(
            e.eid for events in trace.by_reader.values() for e in events
        )
        assert union == sorted(e.eid for e in trace.merged)

    def test_shoplifted_items_have_no_counter_read(self, trace):
        counter_tags = {e["tag"] for e in trace.by_reader["COUNTER_READ"]}
        assert not (trace.shoplifted_tags & counter_tags)

    def test_honest_items_have_counter_between_shelf_and_exit(self, trace):
        shelf = {}
        for event in trace.by_reader["SHELF_READ"]:
            shelf.setdefault(event["tag"], event.ts)
        for event in trace.by_reader["COUNTER_READ"]:
            tag = event["tag"]
            assert shelf[tag] < event.ts

    def test_shoplift_rate_approximate(self):
        trace = RfidStoreGenerator(items=2000, shoplift_rate=0.1, seed=5).generate()
        rate = len(trace.shoplifted_tags) / 2000
        assert 0.07 < rate < 0.13

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"items": -1},
            {"shoplift_rate": 1.5},
            {"shoplift_rate": 0.5, "browse_rate": 0.8},
            {"dwell": 2},
            {"arrival_span": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            RfidStoreGenerator(**kwargs)


class TestShopliftingQuery:
    def test_oracle_detects_exactly_ground_truth(self, trace):
        query = shoplifting_query(within=2000)
        matches = OfflineOracle(query).evaluate(trace.merged)
        assert {m.events[0]["tag"] for m in matches} == trace.shoplifted_tags

    def test_one_match_per_shoplifted_item(self, trace):
        query = shoplifting_query(within=2000)
        matches = OfflineOracle(query).evaluate(trace.merged)
        assert len(matches) == len(trace.shoplifted_tags)

    def test_engine_on_ordered_merged_stream(self, trace):
        query = shoplifting_query(within=2000)
        engine = OutOfOrderEngine(query, k=0)
        engine.run(trace.merged)
        assert {m.events[0]["tag"] for m in engine.results} == trace.shoplifted_tags

    def test_window_too_small_misses(self, trace):
        query = shoplifting_query(within=1)
        matches = OfflineOracle(query).evaluate(trace.merged)
        assert len(matches) < len(trace.shoplifted_tags) or not trace.shoplifted_tags
