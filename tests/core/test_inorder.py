"""In-order baseline engine: exact on ordered input, breaks on disorder."""

import pytest

from repro import Event, InOrderEngine, OfflineOracle, OutOfOrderEngine, parse, seq
from helpers import bounded_shuffle, make_events


class TestCorrectOnOrderedInput:
    def test_simple_match(self, plain_seq2):
        engine = InOrderEngine(plain_seq2)
        engine.run(make_events("A1 B3"))
        assert len(engine.results) == 1

    def test_agrees_with_oracle_on_ordered_trace(self, abc_pattern, random_trace):
        truth = OfflineOracle(abc_pattern).evaluate_set(random_trace)
        engine = InOrderEngine(abc_pattern)
        engine.run(random_trace)
        assert engine.result_set() == truth

    def test_negation_on_ordered_trace(self, neg_pattern, random_trace):
        truth = OfflineOracle(neg_pattern).evaluate_set(random_trace)
        engine = InOrderEngine(neg_pattern)
        engine.run(random_trace)
        assert engine.result_set() == truth

    def test_ties_handled_exactly(self):
        pattern = seq("A a", "B b", within=10)
        engine = InOrderEngine(pattern)
        engine.run(make_events("A5 B5 B6"))
        assert len(engine.results) == 1  # only (A5, B6)

    def test_leading_trailing_negation_ordered(self, random_trace):
        for pattern in (
            seq("!B b", "A a", "C c", within=15),
            seq("A a", "C c", "!B b", within=15),
        ):
            truth = OfflineOracle(pattern).evaluate_set(random_trace)
            engine = InOrderEngine(pattern)
            engine.run(random_trace)
            assert engine.result_set() == truth

    def test_local_predicates_respected(self):
        pattern = parse("PATTERN SEQ(A a, B b) WHERE a.x > 5 AND a.x == b.x WITHIN 10")
        engine = InOrderEngine(pattern)
        engine.run([Event("A", 1, {"x": 3}), Event("A", 2, {"x": 7}), Event("B", 3, {"x": 7})])
        assert len(engine.results) == 1

    def test_single_step_pattern(self):
        pattern = seq("A a", within=10)
        engine = InOrderEngine(pattern)
        engine.run(make_events("A1 A2"))
        assert len(engine.results) == 2


class TestBreaksUnderDisorder:
    """The paper's Section 3 failure modes, demonstrated concretely."""

    def test_late_event_missed(self, plain_seq2):
        engine = InOrderEngine(plain_seq2)
        engine.run(make_events("B4 A2 B6"))
        # (A2, B4) requires triggering on the earlier-arrived B4: missed.
        # (A2, B6) is found because B6 arrives after A2.
        assert len(engine.results) == 1
        assert [e.ts for e in engine.results[0].events] == [2, 6]

    def test_recall_degrades_on_shuffled_trace(self, abc_pattern, random_trace):
        truth = OfflineOracle(abc_pattern).evaluate_set(random_trace)
        arrival = bounded_shuffle(random_trace, k=20, seed=1)
        engine = InOrderEngine(abc_pattern)
        engine.run(arrival)
        produced = engine.result_set()
        assert produced < truth  # strict subset: misses, no inventions

    def test_never_invents_positive_matches(self, abc_pattern, random_trace):
        # With ts checks in descent, positive-pattern output is always valid.
        truth = OfflineOracle(abc_pattern).evaluate_set(random_trace)
        arrival = bounded_shuffle(random_trace, k=30, seed=2)
        engine = InOrderEngine(abc_pattern)
        engine.run(arrival)
        assert engine.result_set() <= truth

    def test_late_negative_produces_false_positive(self):
        pattern = seq("A a", "!B b", "C c", within=10)
        engine = InOrderEngine(pattern)
        # B@3 arrives late, after C@5 advanced the clock to 5 and the
        # bracket (1,5) sealed at horizon 4: the match is already out.
        engine.feed_batch(make_events("A1 C5"))
        engine.feed(Event("Z", 20))  # push clock, release pending
        emitted_before_late_b = list(engine.results)
        engine.feed(Event("B", 3))
        engine.close()
        assert len(emitted_before_late_b) == 1  # false positive already emitted
        truth = OfflineOracle(pattern).evaluate_set(
            make_events("A1 C5") + [Event("Z", 20), Event("B", 3)]
        )
        # Oracle (with the same event set) rejects it.
        assert len(truth) == 0

    def test_worse_with_more_disorder(self, abc_pattern, random_trace):
        truth = OfflineOracle(abc_pattern).evaluate_set(random_trace)

        def recall(k):
            arrival = bounded_shuffle(random_trace, k=k, seed=3)
            engine = InOrderEngine(abc_pattern)
            engine.run(arrival)
            found = len(truth & engine.result_set())
            return found / len(truth)

        assert recall(0) == 1.0
        assert recall(40) < recall(5) <= 1.0


class TestStateManagement:
    def test_purge_bounds_state_on_ordered_input(self, plain_seq2):
        engine = InOrderEngine(plain_seq2)
        engine.feed_batch(Event("A", ts) for ts in range(1, 3001))
        assert engine.state_size() < 50

    def test_purge_rescales_rip_pointers_correctly(self, plain_seq2):
        # After purging, construction must still find valid prefixes.
        engine = InOrderEngine(plain_seq2)
        events = []
        for ts in range(1, 100, 2):
            events.append(Event("A", ts))
            events.append(Event("B", ts + 1))
        engine.run(events)
        truth = OfflineOracle(plain_seq2).evaluate_set(events)
        assert engine.result_set() == truth

    def test_stats_track_construction(self, plain_seq2):
        engine = InOrderEngine(plain_seq2)
        engine.run(make_events("A1 B2"))
        assert engine.stats.construction_triggers == 1
        assert engine.stats.matches_emitted == 1


class TestThroughputParityAtZeroDisorder:
    def test_same_results_as_ooo_engine_on_ordered_input(
        self, abc_pattern, random_trace
    ):
        inorder = InOrderEngine(abc_pattern)
        inorder.run(random_trace)
        ooo = OutOfOrderEngine(abc_pattern, k=0)
        ooo.run(random_trace)
        assert inorder.result_set() == ooo.result_set()
