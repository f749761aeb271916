"""Unit tests for the offline oracle (repro.core.oracle)."""

import itertools
import random

import pytest

from repro import Event, OfflineOracle, parse, seq
from helpers import make_events


class TestBasicSemantics:
    def test_simple_sequence(self):
        pattern = seq("A a", "B b", within=10)
        matches = OfflineOracle(pattern).evaluate(make_events("A1 B3"))
        assert len(matches) == 1

    def test_order_matters(self):
        pattern = seq("A a", "B b", within=10)
        assert OfflineOracle(pattern).evaluate(make_events("B1 A3")) == []

    def test_strictly_increasing_timestamps(self):
        pattern = seq("A a", "B b", within=10)
        assert OfflineOracle(pattern).evaluate(make_events("A5 B5")) == []

    def test_window_boundary(self):
        pattern = seq("A a", "B b", within=4)
        assert len(OfflineOracle(pattern).evaluate(make_events("A1 B5"))) == 1
        assert OfflineOracle(pattern).evaluate(make_events("A1 B6")) == []

    def test_skip_till_any_match_enumerates_all(self):
        pattern = seq("A a", "B b", within=100)
        matches = OfflineOracle(pattern).evaluate(make_events("A1 A2 B3 B4"))
        assert len(matches) == 4

    def test_input_order_irrelevant(self):
        pattern = seq("A a", "B b", "C c", within=100)
        events = make_events("A1 B2 C3 A4 B5 C6")
        baseline = OfflineOracle(pattern).evaluate_set(events)
        for permutation in itertools.permutations(events):
            assert OfflineOracle(pattern).evaluate_set(permutation) == baseline

    def test_no_candidates_of_some_type(self):
        pattern = seq("A a", "B b", within=10)
        assert OfflineOracle(pattern).evaluate(make_events("A1 A2")) == []

    def test_empty_input(self):
        pattern = seq("A a", within=10)
        assert OfflineOracle(pattern).evaluate([]) == []


class TestPredicateSemantics:
    def test_where_filters(self):
        pattern = parse("PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 10")
        events = [
            Event("A", 1, {"x": 1}),
            Event("B", 2, {"x": 1}),
            Event("B", 3, {"x": 2}),
        ]
        matches = OfflineOracle(pattern).evaluate(events)
        assert len(matches) == 1
        assert matches[0].events[1]["x"] == 1

    def test_constant_predicates(self):
        pattern = parse("PATTERN SEQ(A a, B b) WHERE b.x > 5 WITHIN 10")
        events = [Event("A", 1), Event("B", 2, {"x": 3}), Event("B", 3, {"x": 7})]
        assert len(OfflineOracle(pattern).evaluate(events)) == 1


class TestNegationSemantics:
    def test_inner_negation_blocks(self):
        pattern = seq("A a", "!B b", "C c", within=10)
        assert OfflineOracle(pattern).evaluate(make_events("A1 B3 C5")) == []

    def test_inner_negation_boundaries_open(self):
        pattern = seq("A a", "!B b", "C c", within=10)
        # B exactly at A's or C's timestamp does not block.
        assert len(OfflineOracle(pattern).evaluate(make_events("A1 B1 C5"))) == 1
        assert len(OfflineOracle(pattern).evaluate(make_events("A1 B5 C5"))) == 1

    def test_negation_predicate_must_hold_to_block(self):
        pattern = parse(
            "PATTERN SEQ(A a, !B b, C c) WHERE b.x == a.x WITHIN 10"
        )
        events = [
            Event("A", 1, {"x": 1}),
            Event("B", 3, {"x": 2}),  # different partition: doesn't block
            Event("C", 5, {"x": 9}),
        ]
        assert len(OfflineOracle(pattern).evaluate(events)) == 1

    def test_leading_negation_blocks_within_window_prefix(self):
        pattern = seq("!B b", "A a", "C c", within=10)
        # B@12 with A@20, C@25: window floor is 25-10=15, so B@12 is too old.
        assert len(OfflineOracle(pattern).evaluate(make_events("B12 A20 C25"))) == 1
        # B@16 is inside [15, 20): blocks.
        assert OfflineOracle(pattern).evaluate(make_events("B16 A20 C25")) == []

    def test_trailing_negation_blocks_within_window_suffix(self):
        pattern = seq("A a", "C c", "!B b", within=10)
        # Window roof is 20+10=30; B@28 blocks, B@31 does not.
        assert OfflineOracle(pattern).evaluate(make_events("A20 C25 B28")) == []
        assert len(OfflineOracle(pattern).evaluate(make_events("A20 C25 B31"))) == 1

    def test_multiple_negations(self):
        pattern = seq("A a", "!B b", "C c", "!D d", "E e", within=50)
        assert len(OfflineOracle(pattern).evaluate(make_events("A1 C5 E9"))) == 1
        assert OfflineOracle(pattern).evaluate(make_events("A1 B3 C5 E9")) == []
        assert OfflineOracle(pattern).evaluate(make_events("A1 C5 D7 E9")) == []


class TestOracleAgainstBruteForce:
    """Cross-check the oracle against a literal itertools enumeration."""

    def _brute(self, pattern, events):
        by_type = {}
        for event in sorted(events, key=lambda e: (e.ts, e.eid)):
            by_type.setdefault(event.etype, []).append(event)
        pools = [by_type.get(s.etype, []) for s in pattern.positive_steps]
        result = set()
        for combo in itertools.product(*pools):
            stamps = [e.ts for e in combo]
            if stamps != sorted(set(stamps)) or stamps[-1] - stamps[0] > pattern.within:
                continue
            bindings = pattern.bindings_for(list(combo))
            if not all(p.evaluate(bindings) for p in pattern.positive_predicates):
                continue
            blocked = False
            for bracket in pattern.negations:
                lo, hi = bracket.bounds(list(combo), pattern.within)
                for candidate in by_type.get(bracket.step.etype, []):
                    if bracket.admits(candidate, list(combo), pattern.within):
                        blocked = True
                        break
                if blocked:
                    break
            if not blocked:
                result.add((pattern.name, tuple(e.eid for e in combo), ()))
        return result

    @pytest.mark.parametrize("seed", range(5))
    def test_random_traces_agree(self, seed):
        rng = random.Random(seed)
        pattern = parse(
            "PATTERN SEQ(A a, !B b, C c) WHERE a.x == c.x AND b.x == a.x WITHIN 12"
        )
        events = [
            Event(rng.choice("ABCX"), rng.randint(0, 40), {"x": rng.randint(0, 2)})
            for __ in range(40)
        ]
        assert OfflineOracle(pattern).evaluate_set(events) == self._brute(pattern, events)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_traces_agree_no_negation(self, seed):
        rng = random.Random(100 + seed)
        pattern = parse("PATTERN SEQ(A a, B b, C c) WHERE a.x == b.x WITHIN 15")
        events = [
            Event(rng.choice("ABC"), rng.randint(0, 50), {"x": rng.randint(0, 2)})
            for __ in range(45)
        ]
        assert OfflineOracle(pattern).evaluate_set(events) == self._brute(pattern, events)
