"""Integration: registered queries over simulated deployments + CLI."""

from repro import (
    MultiQueryPlan,
    OfflineOracle,
    OutOfOrderEngine,
    PartitionedEngine,
    QueryPlan,
    parse,
)
from repro.cli import main as cli_main
from repro.streams import dump_trace, required_k, star_arrival
from repro.workloads import (
    RfidStoreGenerator,
    shoplifting_query,
)


class TestRegistryOverNetsim:
    """Two store queries registered on one simulated arrival stream."""

    def test_two_store_queries_one_stream(self):
        trace = RfidStoreGenerator(items=200, shoplift_rate=0.08, seed=91).generate()
        arrival, _times = star_arrival(trace.by_reader, (0, 120), seed=92)
        k = required_k(arrival)
        shoplift = QueryPlan(OutOfOrderEngine(shoplifting_query(2000), k=k))
        restock_pattern = parse(
            "PATTERN SEQ(COUNTER_READ c, SHELF_READ s) WHERE c.tag == s.tag WITHIN 2000"
        )
        restock = QueryPlan(PartitionedEngine(restock_pattern, k=k))
        MultiQueryPlan([shoplift, restock]).run(arrival)

        assert {m.events[0]["tag"] for m in shoplift.matches} == trace.shoplifted_tags
        restock_truth = OfflineOracle(restock_pattern).evaluate_set(trace.merged)
        assert {match.key() for match in restock.matches} == restock_truth


class TestCliOverWorkloadTrace:
    def test_rfid_trace_verified_through_cli(self, tmp_path):
        trace = RfidStoreGenerator(items=120, shoplift_rate=0.1, seed=93).generate()
        arrival, _times = star_arrival(trace.by_reader, (0, 60), seed=94)
        path = tmp_path / "store.jsonl"
        dump_trace(arrival, path)
        k = required_k(arrival)
        code = cli_main(
            [
                "run",
                "--query",
                "PATTERN SEQ(SHELF_READ s, !COUNTER_READ c, EXIT_READ e) "
                "WHERE s.tag == e.tag AND c.tag == s.tag WITHIN 2000",
                "--trace", str(path),
                "--engine", "partitioned",
                "--k", str(k),
                "--verify",
            ]
        )
        assert code == 0

    def test_inorder_engine_fails_verification_on_same_trace(self, tmp_path, capsys):
        trace = RfidStoreGenerator(items=120, shoplift_rate=0.1, seed=93).generate()
        arrival, _times = star_arrival(trace.by_reader, (0, 60), seed=94)
        path = tmp_path / "store.jsonl"
        dump_trace(arrival, path)
        code = cli_main(
            [
                "run",
                "--query",
                "PATTERN SEQ(SHELF_READ s, !COUNTER_READ c, EXIT_READ e) "
                "WHERE s.tag == e.tag AND c.tag == s.tag WITHIN 2000",
                "--trace", str(path),
                "--engine", "inorder",
                "--verify",
            ]
        )
        assert code == 1  # breaks on the disordered trace, and says so
