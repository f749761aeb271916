"""OutOfOrderEngine under out-of-order arrival — the paper's core claim."""

import itertools
import random

import pytest

from repro import (
    Event,
    OfflineOracle,
    OutOfOrderEngine,
    parse,
    seq,
)
from helpers import bounded_shuffle, engine_vs_oracle, make_events


class TestLateCompletions:
    def test_late_first_step_completes_match(self, plain_seq2):
        engine = OutOfOrderEngine(plain_seq2, k=10)
        assert engine.feed(Event("B", 4)) == []
        emitted = engine.feed(Event("A", 2))  # late
        assert len(emitted) == 1
        assert [e.ts for e in emitted[0].events] == [2, 4]

    def test_late_middle_step_completes_match(self):
        pattern = seq("A a", "B b", "C c", within=20)
        engine = OutOfOrderEngine(pattern, k=10)
        engine.feed(Event("A", 1))
        engine.feed(Event("C", 9))
        emitted = engine.feed(Event("B", 5))  # late middle event
        assert len(emitted) == 1
        assert [e.ts for e in emitted[0].events] == [1, 5, 9]

    def test_late_event_creates_multiple_matches(self):
        pattern = seq("A a", "B b", within=20)
        engine = OutOfOrderEngine(pattern, k=10)
        engine.feed_many(make_events("B5 B8"))
        emitted = engine.feed(Event("A", 2))
        assert len(emitted) == 2

    def test_exactly_once_under_total_inversion(self):
        pattern = seq("A a", "B b", "C c", within=20)
        engine = OutOfOrderEngine(pattern, k=20)
        engine.run(make_events("C9 B5 A1"))
        assert len(engine.results) == 1

    def test_duplicate_free_with_interleaved_triggers(self, plain_seq2):
        engine = OutOfOrderEngine(plain_seq2, k=10)
        engine.run(make_events("B3 A1 B5 A2"))
        # pairs: (1,3),(1,5),(2,3),(2,5)
        assert len(engine.results) == 4
        assert len(engine.result_set()) == 4


class TestPermutationExhaustive:
    def test_every_bounded_permutation_of_small_trace(self, plain_seq2):
        events = make_events("A1 B2 A3 B4")
        truth = OfflineOracle(plain_seq2).evaluate_set(events)
        for permutation in itertools.permutations(events):
            engine = OutOfOrderEngine(plain_seq2, k=None)  # no K: nothing late
            engine.run(list(permutation))
            assert engine.result_set() == truth, permutation

    def test_every_permutation_three_steps(self):
        pattern = seq("A a", "B b", "C c", within=30)
        events = make_events("A1 B3 C5 B7")
        truth = OfflineOracle(pattern).evaluate_set(events)
        for permutation in itertools.permutations(events):
            engine = OutOfOrderEngine(pattern, k=None)
            engine.run(list(permutation))
            assert engine.result_set() == truth, permutation


class TestBoundedDisorderParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_bounded_shuffles_match_oracle(self, abc_pattern, random_trace, seed):
        arrival = bounded_shuffle(random_trace, k=15, seed=seed)
        engine = engine_vs_oracle(abc_pattern, arrival, k=15)
        assert engine.stats.late_dropped == 0

    @pytest.mark.parametrize("k", [0, 1, 5, 25, 80])
    def test_various_disorder_bounds(self, abc_pattern, random_trace, k):
        arrival = bounded_shuffle(random_trace, k=k, seed=42)
        engine_vs_oracle(abc_pattern, arrival, k=k)

    def test_k_larger_than_needed_is_harmless(self, abc_pattern, random_trace):
        arrival = bounded_shuffle(random_trace, k=5, seed=3)
        engine_vs_oracle(abc_pattern, arrival, k=500)

    def test_unbounded_k_always_correct(self, abc_pattern, random_trace):
        rng = random.Random(9)
        arrival = random_trace[:]
        rng.shuffle(arrival)  # unbounded disorder
        engine_vs_oracle(abc_pattern, arrival, k=None)

    def test_disorder_counter(self, plain_seq2):
        engine = OutOfOrderEngine(plain_seq2, k=10)
        engine.run(make_events("A5 B3 A1 B6"))
        assert engine.stats.out_of_order_events == 2


class TestLatePolicies:
    def _late_trace(self):
        # Event at ts=1 arrives after clock reached 50 with k=10: late.
        return [Event("B", 50), Event("A", 1), Event("B", 52)]

    def test_drop_policy_counts_and_skips(self, plain_seq2):
        engine = OutOfOrderEngine(plain_seq2, k=10)
        engine.run(self._late_trace())
        assert engine.stats.late_dropped == 1
        assert engine.results == []
        assert engine.stats.events_admitted == 2  # the late A never reached a stack


class TestEquivalenceAcrossArrivals:
    """The engine's result set depends only on the event set, not arrival."""

    @pytest.mark.parametrize("seed", range(5))
    def test_different_arrivals_same_results(self, abc_pattern, random_trace, seed):
        baseline = OutOfOrderEngine(abc_pattern, k=None)
        baseline.run(random_trace)
        arrival = bounded_shuffle(random_trace, k=30, seed=seed)
        shuffled = OutOfOrderEngine(abc_pattern, k=30)
        shuffled.run(arrival)
        assert shuffled.result_set() == baseline.result_set()

    def test_determinism_same_arrival_same_everything(self, abc_pattern, random_trace):
        arrival = bounded_shuffle(random_trace, k=10, seed=1)
        first = OutOfOrderEngine(abc_pattern, k=10)
        first.run(arrival)
        second = OutOfOrderEngine(abc_pattern, k=10)
        second.run(arrival)
        assert [m.key() for m in first.results] == [m.key() for m in second.results]
        assert first.stats.as_dict() == second.stats.as_dict()


class TestScanConstructionOptimizationsUnderDisorder:
    @pytest.mark.parametrize("optimize", [True, False])
    def test_results_identical_with_and_without_optimizations(
        self, abc_pattern, random_trace, optimize
    ):
        arrival = bounded_shuffle(random_trace, k=20, seed=7)
        engine_vs_oracle(
            abc_pattern,
            arrival,
            k=20,
            optimize_scan=optimize,
            optimize_construction=optimize,
        )

    def test_probe_saves_triggers_under_disorder(self, abc_pattern, random_trace):
        arrival = bounded_shuffle(random_trace, k=20, seed=7)
        fast = OutOfOrderEngine(abc_pattern, k=20, optimize_scan=True)
        slow = OutOfOrderEngine(abc_pattern, k=20, optimize_scan=False)
        fast.run(arrival)
        slow.run(arrival)
        assert fast.stats.construction_triggers < slow.stats.construction_triggers
        assert fast.result_set() == slow.result_set()

    @pytest.mark.parametrize("rate", [0.0, 0.2, 0.5])
    def test_e2_workload_byte_identical_across_construction_paths(self, rate):
        """The E2 reference workload pins the construction rewrites: the
        O(1) prefix bound, the compiled pipelines and the equality index
        must leave the *ordered emission stream* — keys and detection
        stamps, not just the result set — untouched, and oracle-exact."""
        from repro.streams import RandomDelayModel
        from repro.workloads import SyntheticWorkload

        disorder = RandomDelayModel(rate, 40, seed=3) if rate else None
        workload = SyntheticWorkload(
            query_length=3,
            event_count=1500,
            within=40,
            partitions=8,
            disorder=disorder,
            seed=4,
        )
        occurrence, arrival = workload.generate()

        def trail(**kwargs):
            engine = OutOfOrderEngine(workload.query, k=40, **kwargs)
            engine.run(arrival)
            return engine, [(m.key(), m.detected_at) for m in engine.results]

        indexed, indexed_trail = trail(index=True)
        __, range_trail = trail(index=False)
        __, naive_trail = trail(optimize_construction=False)
        assert indexed_trail == range_trail == naive_trail
        truth = OfflineOracle(workload.query).evaluate_set(occurrence)
        assert indexed.result_set() == truth
