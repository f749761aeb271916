"""Kleene closure (``E+``) semantics across oracle and engines."""

import pytest

from repro import (
    Event,
    InOrderEngine,
    OfflineOracle,
    OutOfOrderEngine,
    PartitionedEngine,
    Punctuation,
    QueryError,
    ReorderingEngine,
    Step,
    parse,
    seq,
)
from helpers import bounded_shuffle, make_events


@pytest.fixture
def abc_kleene():
    return seq("A a", "B+ bs", "C c", within=20)


@pytest.fixture
def keyed_kleene():
    return parse(
        "PATTERN SEQ(A a, B+ bs, C c) "
        "WHERE a.x == c.x AND bs.x == a.x WITHIN 20"
    )


class TestPatternCompilation:
    def test_kleene_step_not_an_anchor(self, abc_kleene):
        assert abc_kleene.length == 2
        assert abc_kleene.has_kleene
        assert abc_kleene.kleene_types == {"B"}
        assert abc_kleene.relevant_types == {"A", "B", "C"}

    def test_parser_syntax(self):
        pattern = parse("PATTERN SEQ(A a, B+ bs, C c) WITHIN 10")
        assert pattern.has_kleene
        assert pattern.kleene[0].step.var == "bs"

    def test_repr_roundtrips(self, keyed_kleene):
        reparsed = parse(repr(keyed_kleene), name=keyed_kleene.name)
        assert reparsed.has_kleene
        assert reparsed.kleene[0].predicates == keyed_kleene.kleene[0].predicates

    def test_leading_kleene_rejected(self):
        with pytest.raises(QueryError, match="strictly between"):
            seq("B+ bs", "A a", within=10)

    def test_trailing_kleene_rejected(self):
        with pytest.raises(QueryError, match="strictly between"):
            seq("A a", "B+ bs", within=10)

    def test_negated_kleene_rejected(self):
        with pytest.raises(QueryError, match="meaningless"):
            Step("B", "b", negated=True, kleene=True)

    def test_kleene_predicates_partitioned(self, keyed_kleene):
        assert len(keyed_kleene.kleene[0].predicates) == 1
        assert len(keyed_kleene.positive_predicates) == 1


class TestOracleSemantics:
    def test_collects_all_qualifying_events(self, abc_kleene):
        matches = OfflineOracle(abc_kleene).evaluate(make_events("A1 B3 B5 C9"))
        assert len(matches) == 1
        assert [e.ts for e in matches[0].collections["bs"]] == [3, 5]

    def test_empty_collection_cancels_match(self, abc_kleene):
        assert OfflineOracle(abc_kleene).evaluate(make_events("A1 C9")) == []

    def test_elements_strictly_inside_anchor_interval(self, abc_kleene):
        matches = OfflineOracle(abc_kleene).evaluate(make_events("B1 A1 B9 C9 B5"))
        assert len(matches) == 1
        assert [e.ts for e in matches[0].collections["bs"]] == [5]

    def test_predicates_filter_elements(self, keyed_kleene):
        events = [
            Event("A", 1, {"x": 1}),
            Event("B", 3, {"x": 1}),
            Event("B", 4, {"x": 2}),  # wrong partition: not collected
            Event("C", 9, {"x": 1}),
        ]
        matches = OfflineOracle(keyed_kleene).evaluate(events)
        assert len(matches) == 1
        assert [e.ts for e in matches[0].collections["bs"]] == [3]

    def test_predicates_can_cancel_via_empty_collection(self, keyed_kleene):
        events = [
            Event("A", 1, {"x": 1}),
            Event("B", 3, {"x": 2}),
            Event("C", 9, {"x": 1}),
        ]
        assert OfflineOracle(keyed_kleene).evaluate(events) == []

    def test_per_anchor_combination_collections(self, abc_kleene):
        matches = OfflineOracle(abc_kleene).evaluate(make_events("A1 B3 C5 B7 C9"))
        by_c = {m.events[1].ts: [e.ts for e in m.collections["bs"]] for m in matches}
        assert by_c == {5: [3], 9: [3, 7]}

    def test_two_kleene_steps(self):
        pattern = seq("A a", "B+ bs", "C c", "D+ ds", "E e", within=40)
        matches = OfflineOracle(pattern).evaluate(make_events("A1 B2 B3 C5 D7 E9"))
        assert len(matches) == 1
        assert len(matches[0].collections) == 2

    def test_match_key_includes_collections(self, abc_kleene):
        first = OfflineOracle(abc_kleene).evaluate(make_events("A1 B3 C9"))[0]
        second = OfflineOracle(abc_kleene).evaluate(make_events("A1 B3 B5 C9"))[0]
        assert first.key() != second.key()


class TestOutOfOrderEngine:
    def test_held_until_interval_sealed(self, abc_kleene):
        engine = OutOfOrderEngine(abc_kleene, k=5)
        engine.feed_batch(make_events("A1 B3 C9"))
        assert engine.results == []  # a late B could still extend bs
        emitted = engine.feed(Event("Z", 30))
        assert len(emitted) == 1
        assert [e.ts for e in emitted[0].collections["bs"]] == [3]

    def test_late_kleene_element_included(self, abc_kleene):
        engine = OutOfOrderEngine(abc_kleene, k=10)
        engine.feed_batch(make_events("A1 B3 C9"))
        engine.feed(Event("B", 5))  # late element inside the interval
        engine.feed(Event("Z", 40))
        assert len(engine.results) == 1
        assert [e.ts for e in engine.results[0].collections["bs"]] == [3, 5]

    def test_late_anchor_works_too(self, abc_kleene):
        engine = OutOfOrderEngine(abc_kleene, k=10)
        engine.feed_batch(make_events("B3 C9"))
        engine.feed(Event("A", 1))  # late first anchor
        engine.feed(Event("Z", 40))
        assert len(engine.results) == 1

    def test_close_flushes_with_known_elements(self, abc_kleene):
        engine = OutOfOrderEngine(abc_kleene, k=100)
        engine.feed_batch(make_events("A1 B3 C9"))
        emitted = engine.close()
        assert len(emitted) == 1

    def test_punctuation_seals_kleene(self, abc_kleene):
        engine = OutOfOrderEngine(abc_kleene)  # no K promise
        engine.feed_batch(make_events("A1 B3 C9"))
        emitted = engine.feed(Punctuation(8))
        assert len(emitted) == 1

    def test_kleene_store_purged(self, abc_kleene):
        engine = OutOfOrderEngine(abc_kleene, k=0)
        for ts in range(1, 500, 2):
            engine.feed(Event("B", ts))
        assert engine.kleene_store.size() < 25

    @pytest.mark.parametrize("seed", range(4))
    def test_oracle_parity_under_disorder(self, keyed_kleene, random_trace, seed):
        arrival = bounded_shuffle(random_trace, k=12, seed=seed)
        truth = OfflineOracle(keyed_kleene).evaluate_set(random_trace)
        engine = OutOfOrderEngine(keyed_kleene, k=12)
        engine.run(arrival)
        assert engine.result_set() == truth


class TestOtherEngines:
    def test_inorder_exact_on_ordered_input(self, keyed_kleene, random_trace):
        truth = OfflineOracle(keyed_kleene).evaluate_set(random_trace)
        engine = InOrderEngine(keyed_kleene)
        engine.run(random_trace)
        assert engine.result_set() == truth

    def test_inorder_breaks_under_disorder(self, keyed_kleene, random_trace):
        arrival = bounded_shuffle(random_trace, k=15, seed=5)
        truth = OfflineOracle(keyed_kleene).evaluate_set(random_trace)
        engine = InOrderEngine(keyed_kleene)
        engine.run(arrival)
        assert engine.result_set() != truth

    def test_reorder_exact_under_disorder(self, keyed_kleene, random_trace):
        arrival = bounded_shuffle(random_trace, k=15, seed=6)
        truth = OfflineOracle(keyed_kleene).evaluate_set(random_trace)
        engine = ReorderingEngine(keyed_kleene, k=15)
        engine.run(arrival)
        assert engine.result_set() == truth

    def test_speculative_kleene_is_exact(self, keyed_kleene, random_trace):
        arrival = bounded_shuffle(random_trace, k=15, seed=7)
        truth = OfflineOracle(keyed_kleene).evaluate_set(random_trace)
        engine = OutOfOrderEngine(keyed_kleene, k=15, speculative=True)
        engine.run(arrival)
        assert engine.result_set() == truth
        # Kleene matches speculate too; revised bindings converge net.
        assert engine.stats.speculative_emitted > 0
        assert engine.speculation.net_keys() == truth

    def test_partitioned_exact_under_disorder(self, keyed_kleene, random_trace):
        arrival = bounded_shuffle(random_trace, k=15, seed=8)
        truth = OfflineOracle(keyed_kleene).evaluate_set(random_trace)
        engine = PartitionedEngine(keyed_kleene, k=15)
        engine.run(arrival)
        assert engine.result_set() == truth


class TestBindingsAndTransformation:
    def test_bindings_include_collection(self, abc_kleene):
        match = OfflineOracle(abc_kleene).evaluate(make_events("A1 B3 C9"))[0]
        bindings = match.bindings()
        assert bindings["a"].ts == 1
        assert [e.ts for e in bindings["bs"]] == [3]

    def test_composite_event_can_aggregate_collection(self, abc_kleene):
        from repro import CompositeEventFactory

        factory = CompositeEventFactory(
            "BURST", {"count": lambda b: len(b["bs"])}
        )
        match = OfflineOracle(abc_kleene).evaluate(make_events("A1 B3 B5 B7 C9"))[0]
        assert factory.build(match)["count"] == 3

    def test_repr_shows_collection(self, abc_kleene):
        match = OfflineOracle(abc_kleene).evaluate(make_events("A1 B3 C9"))[0]
        assert "bs=[B@3]" in repr(match)
