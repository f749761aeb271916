"""Conservative negation under disorder (engine + negation module)."""

import pytest

from repro import (
    Event,
    OfflineOracle,
    OutOfOrderEngine,
    Punctuation,
    parse,
    seq,
)
from repro.core.negation import PendingMatches, compile_seal_point
from repro.core.pattern import Match
from helpers import bounded_shuffle, engine_vs_oracle, make_events


class TestSealTiming:
    def test_match_held_until_bracket_sealed(self):
        pattern = seq("A a", "!B b", "C c", within=10)
        engine = OutOfOrderEngine(pattern, k=5)
        engine.feed_batch(make_events("A1 C5"))
        # Bracket (1, 5) seals at horizon >= 4, i.e. clock >= 10 (k=5).
        assert engine.results == []
        emitted = engine.feed(Event("Z", 20))
        assert len(emitted) == 1

    def test_match_emitted_immediately_when_already_sealed(self):
        pattern = seq("A a", "!B b", "C c", within=10)
        engine = OutOfOrderEngine(pattern, k=5)
        engine.feed(Event("Z", 30))  # clock far ahead
        engine.feed(Event("A", 26))
        emitted = engine.feed(Event("C", 29))
        # bracket (26,29): seal point 28 <= horizon 24? No: horizon = 30-5-1=24.
        assert emitted == []
        emitted = engine.feed(Event("Z", 35))
        assert len(emitted) == 1

    def test_late_negative_cancels_pending_match(self):
        pattern = seq("A a", "!B b", "C c", within=10)
        engine = OutOfOrderEngine(pattern, k=5)
        engine.feed_batch(make_events("A1 C5"))
        assert engine.results == []
        engine.feed(Event("B", 3))  # late negative inside the bracket
        engine.feed(Event("Z", 50))  # seal everything
        engine.close()
        assert engine.results == []
        assert engine.stats.matches_cancelled == 1

    def test_negative_outside_bracket_does_not_cancel(self):
        pattern = seq("A a", "!B b", "C c", within=10)
        engine = OutOfOrderEngine(pattern, k=5)
        engine.feed_batch(make_events("A2 C5 B7"))  # B after C: outside
        engine.feed(Event("Z", 50))
        assert len(engine.results) == 1

    def test_seal_point_computation(self):
        pattern = seq("A a", "!B b", "C c", within=10)
        match = Match(pattern, make_events("A1 C5"))
        assert compile_seal_point(pattern)(match.events) == 4  # hi=5, sealed at 4

    def test_seal_point_trailing_negation(self):
        pattern = seq("A a", "C c", "!B b", within=10)
        match = Match(pattern, make_events("A1 C5"))
        assert compile_seal_point(pattern)(match.events) == 11  # first.ts + W

    def test_no_negation_seals_immediately(self, plain_seq2):
        match = Match(plain_seq2, make_events("A1 B2"))
        assert compile_seal_point(plain_seq2)(match.events) == -1


class TestNegationOracleParity:
    @pytest.mark.parametrize("seed", range(6))
    def test_bounded_disorder(self, neg_pattern, random_trace, seed):
        arrival = bounded_shuffle(random_trace, k=12, seed=seed)
        engine_vs_oracle(neg_pattern, arrival, k=12)

    def test_leading_negation_under_disorder(self, random_trace):
        pattern = seq("!B b", "A a", "C c", within=15)
        arrival = bounded_shuffle(random_trace, k=10, seed=2)
        engine_vs_oracle(pattern, arrival, k=10)

    def test_trailing_negation_under_disorder(self, random_trace):
        pattern = seq("A a", "C c", "!B b", within=15)
        arrival = bounded_shuffle(random_trace, k=10, seed=3)
        engine_vs_oracle(pattern, arrival, k=10)

    def test_double_negation_under_disorder(self, random_trace):
        pattern = seq("A a", "!B b", "C c", "!D d", "A a2", within=40)
        arrival = bounded_shuffle(random_trace, k=10, seed=4)
        engine_vs_oracle(pattern, arrival, k=10)

    def test_negation_with_predicates_under_disorder(self, random_trace):
        pattern = parse(
            "PATTERN SEQ(A a, !B b, C c) "
            "WHERE a.x == c.x AND b.x == a.x WITHIN 25"
        )
        arrival = bounded_shuffle(random_trace, k=18, seed=5)
        engine_vs_oracle(pattern, arrival, k=18)


class TestCloseSemantics:
    def test_close_releases_pending_as_end_of_stream(self):
        pattern = seq("A a", "!B b", "C c", within=10)
        engine = OutOfOrderEngine(pattern, k=100)  # huge K: nothing seals
        engine.feed_batch(make_events("A1 C5"))
        assert engine.results == []
        emitted = engine.close()
        assert len(emitted) == 1

    def test_close_applies_negatives_seen(self):
        pattern = seq("A a", "!B b", "C c", within=10)
        engine = OutOfOrderEngine(pattern, k=100)
        engine.feed_batch(make_events("A1 C5 B3"))
        emitted = engine.close()
        assert emitted == []
        assert engine.stats.matches_cancelled == 1

    def test_punctuation_seals_brackets(self):
        pattern = seq("A a", "!B b", "C c", within=10)
        engine = OutOfOrderEngine(pattern)  # no K at all
        engine.feed_batch(make_events("A1 C5"))
        assert engine.results == []
        emitted = engine.feed(Punctuation(4))
        assert len(emitted) == 1


class TestPendingMatches:
    def test_release_order_by_seal_point(self, plain_seq2):
        pending = PendingMatches()
        early = Match(plain_seq2, make_events("A1 B2"))
        late = Match(plain_seq2, make_events("A3 B4"))
        pending.add(late, 10)
        pending.add(early, 5)
        assert pending.release(7) == [early]
        assert pending.release(20) == [late]

    def test_release_empty_below_min(self, plain_seq2):
        pending = PendingMatches()
        pending.add(Match(plain_seq2, make_events("A1 B2")), 5)
        assert pending.release(4) == []
        assert len(pending) == 1

    def test_fifo_among_equal_seal_points(self, plain_seq2):
        pending = PendingMatches()
        first = Match(plain_seq2, make_events("A1 B2"))
        second = Match(plain_seq2, make_events("A3 B4"))
        pending.add(first, 5)
        pending.add(second, 5)
        assert pending.release(5) == [first, second]

    def test_drain_returns_everything_sorted(self, plain_seq2):
        pending = PendingMatches()
        a = Match(plain_seq2, make_events("A1 B2"))
        b = Match(plain_seq2, make_events("A3 B4"))
        pending.add(b, 9)
        pending.add(a, 3)
        assert pending.drain() == [a, b]
        assert len(pending) == 0


class TestNegativeEidsAtTheWindowEdge:
    """Bisect sentinels must order below every eid, negative ones included."""

    @pytest.mark.parametrize("optimize_scan", [True, False])
    def test_probe_sees_an_instance_at_exactly_ts_minus_window(self, optimize_scan):
        pattern = seq("A a", "B b", within=5)
        arrival = [Event("A", 0, eid=-7), Event("B", 5, eid=10)]
        truth = OfflineOracle(pattern).evaluate_set(arrival)
        assert truth == {(pattern.name, (-7, 10), ())}
        engine = OutOfOrderEngine(pattern, k=3, optimize_scan=optimize_scan)
        engine.run(arrival)
        assert engine.result_set() == truth
        assert engine.stats.construction_triggers == (1 if optimize_scan else 2)
        assert engine.stats.construction_skipped_by_probe == (1 if optimize_scan else 0)

    def test_negative_at_the_upper_bracket_edge_is_outside(self):
        pattern = parse(
            "PATTERN SEQ(A a, !N n, B b) WHERE n.x == a.x WITHIN 10", name="edge"
        )
        arrival = [
            Event("A", 1, {"x": 1}, eid=1),
            Event("N", 5, {"x": 1}, eid=-4),  # ts == B's: outside (1, 5)
            Event("B", 5, {"x": 1}, eid=2),
        ]
        truth = OfflineOracle(pattern).evaluate_set(arrival)
        assert truth == {(pattern.name, (1, 2), ())}
        engine = OutOfOrderEngine(pattern, k=3)
        engine.run(arrival)
        assert engine.result_set() == truth
        assert engine.stats.matches_cancelled == 0
        # Only candidates inside the bracket are evaluated.
        assert engine.stats.predicate_evaluations == 0

    def test_negative_eid_inside_the_bracket_still_cancels(self):
        pattern = seq("A a", "!N n", "B b", within=10)
        arrival = [Event("A", 1, eid=1), Event("N", 4, eid=-4), Event("B", 5, eid=2)]
        assert OfflineOracle(pattern).evaluate_set(arrival) == set()
        engine = OutOfOrderEngine(pattern, k=3)
        engine.run(arrival)
        assert engine.result_set() == set()
        assert engine.stats.matches_cancelled == 1
        assert engine.stats.predicate_evaluations == 1
