"""Synthetic parameterised workload (repro.workloads.synthetic)."""

import pytest

from repro import ConfigurationError, OfflineOracle, OutOfOrderEngine
from repro.streams import RandomDelayModel, measure_disorder
from repro.workloads import SyntheticWorkload, chain_query


class TestChainQuery:
    def test_length_and_window(self):
        query = chain_query(4, within=30)
        assert query.length == 4
        assert query.within == 30

    def test_partitioned_adds_equality_chain(self):
        query = chain_query(3, within=10, partitioned=True)
        assert len(query.where) == 2

    def test_unpartitioned_has_no_predicates(self):
        query = chain_query(3, within=10, partitioned=False)
        assert not query.where

    def test_negated_step_inserted(self):
        query = chain_query(3, within=10, negated_step=1)
        assert query.negations
        assert query.length == 3
        assert query.negated_types == {"N"}

    def test_trailing_negation(self):
        query = chain_query(2, within=10, negated_step=2)
        bracket = query.negations[0]
        assert bracket.upper is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            chain_query(0, within=10)
        with pytest.raises(ConfigurationError):
            chain_query(2, within=0)


class TestWorkload:
    def test_generate_returns_both_orders(self):
        workload = SyntheticWorkload(event_count=500, seed=1)
        ordered, arrival = workload.generate()
        assert len(ordered) == len(arrival) == 500
        assert [e.ts for e in ordered] == sorted(e.ts for e in ordered)

    def test_disorder_applied_to_arrival(self):
        workload = SyntheticWorkload(
            event_count=500, disorder=RandomDelayModel(0.4, 20, seed=2), seed=1
        )
        __, arrival = workload.generate()
        assert measure_disorder(arrival).displaced > 0

    def test_no_disorder_default(self):
        workload = SyntheticWorkload(event_count=200, seed=1)
        __, arrival = workload.generate()
        assert measure_disorder(arrival).displaced == 0

    def test_deterministic(self):
        a = SyntheticWorkload(event_count=300, seed=9).generate()
        b = SyntheticWorkload(event_count=300, seed=9).generate()
        # eids are globally sequential, so determinism is content-level
        assert [(e.etype, e.ts, e.attrs) for e in a[0]] == [
            (e.etype, e.ts, e.attrs) for e in b[0]
        ]

    def test_negatives_included_when_requested(self):
        workload = SyntheticWorkload(
            event_count=1000, negated_step=1, include_negatives=0.3, seed=2
        )
        ordered, __ = workload.generate()
        negatives = sum(1 for e in ordered if e.etype == "N")
        assert 200 < negatives < 400

    def test_partitions_control_selectivity(self):
        def match_count(partitions):
            workload = SyntheticWorkload(
                event_count=800, partitions=partitions, seed=3, within=30
            )
            ordered, __ = workload.generate()
            return len(OfflineOracle(workload.query).evaluate(ordered))

        assert match_count(1) > match_count(20)

    def test_engine_runs_clean_on_workload(self):
        workload = SyntheticWorkload(
            event_count=600,
            disorder=RandomDelayModel(0.3, 15, seed=4),
            seed=5,
        )
        ordered, arrival = workload.generate()
        truth = OfflineOracle(workload.query).evaluate_set(ordered)
        engine = OutOfOrderEngine(workload.query, k=15)
        engine.run(arrival)
        assert engine.result_set() == truth

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SyntheticWorkload(partitions=0)
        with pytest.raises(ConfigurationError):
            SyntheticWorkload(noise_types=-1)
        with pytest.raises(ConfigurationError):
            SyntheticWorkload(include_negatives=2.0)
