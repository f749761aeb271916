"""Bench harness helpers (repro.bench.runner) not covered elsewhere."""

from repro import OutOfOrderEngine, seq
from repro.bench import oracle_truth, run_cell
from helpers import make_events


class TestRunCell:
    def test_without_truth_no_quality_fields(self, plain_seq2):
        cell = run_cell(OutOfOrderEngine(plain_seq2, k=0), make_events("A1 B2"))
        assert "recall" not in cell
        assert cell["matches"] == 1
        assert cell["events"] == 2

    def test_latency_fields_present(self, plain_seq2):
        cell = run_cell(OutOfOrderEngine(plain_seq2, k=0), make_events("A1 B2"))
        assert cell["lat_arrival_mean"] == 0.0
        assert cell["lat_occurrence_mean"] == 0.0

    def test_oracle_truth_helper(self, plain_seq2):
        events = make_events("A1 B2 A3 B4")
        truth = oracle_truth(plain_seq2, events)
        assert len(truth) == 3

    def test_counters_surface(self):
        pattern = seq("A a", "B b", within=10)
        cell = run_cell(OutOfOrderEngine(pattern, k=0), make_events("A1 B2 Z3"))
        assert cell["construction_triggers"] >= 1
        assert cell["engine"] == "OutOfOrderEngine"
