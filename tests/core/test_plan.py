"""Query plans and transformation (repro.core.plan / transformation)."""

import pytest

from repro import (
    CompositeEventFactory,
    ConfigurationError,
    Event,
    MultiQueryPlan,
    OutOfOrderEngine,
    QueryPlan,
    parse,
    seq,
)
from helpers import make_events


@pytest.fixture
def engine(plain_seq2):
    return OutOfOrderEngine(plain_seq2, k=0)


class TestCompositeEventFactory:
    def test_string_spec_extracts_binding_attr(self, plain_seq2):
        from repro.core.pattern import Match

        factory = CompositeEventFactory("OUT", {"left": "a.x"})
        match = Match(plain_seq2, [Event("A", 1, {"x": 7}), Event("B", 2)])
        composite = factory.build(match)
        assert composite.etype == "OUT"
        assert composite["left"] == 7

    def test_ts_spec(self, plain_seq2):
        from repro.core.pattern import Match

        factory = CompositeEventFactory("OUT", {"start": "a.ts"})
        match = Match(plain_seq2, [Event("A", 3), Event("B", 5)])
        assert factory.build(match)["start"] == 3

    def test_callable_spec(self, plain_seq2):
        from repro.core.pattern import Match

        factory = CompositeEventFactory("OUT", {"gap": lambda b: b["b"].ts - b["a"].ts})
        match = Match(plain_seq2, [Event("A", 3), Event("B", 10)])
        assert factory.build(match)["gap"] == 7

    def test_composite_ts_is_match_end(self, plain_seq2):
        from repro.core.pattern import Match

        factory = CompositeEventFactory("OUT")
        match = Match(plain_seq2, [Event("A", 3), Event("B", 10)])
        composite = factory.build(match)
        assert composite.ts == 10
        assert composite["span"] == 7

    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            CompositeEventFactory("")
        with pytest.raises(ConfigurationError):
            CompositeEventFactory("OUT", {"bad": "nodot"})
        with pytest.raises(ConfigurationError):
            CompositeEventFactory("OUT", {"bad": 42})


class TestQueryPlan:
    def test_collects_matches_without_transformation(self, engine):
        plan = QueryPlan(engine)
        produced = plan.run(make_events("A1 B2"))
        assert produced == []
        assert len(plan.matches) == 1

    def test_transformation_produces_composites(self, engine):
        plan = QueryPlan(
            engine,
            transformation=CompositeEventFactory("PAIR", {"start": "a.ts"}),
        )
        produced = plan.run(make_events("A1 B2"))
        assert len(produced) == 1
        assert produced[0].etype == "PAIR"
        assert plan.composites == produced

    def test_selection_filters_matches(self, engine):
        plan = QueryPlan(engine, selection=lambda m: m.end_ts - m.start_ts > 2)
        plan.run(make_events("A1 B2 A5 B9"))
        # spans: (1,2)=1 filtered; (1,9)=8 kept; (5,9)=4 kept
        assert len(plan.matches) == 2

    def test_selection_must_be_callable(self, engine):
        with pytest.raises(ConfigurationError):
            QueryPlan(engine, selection="not callable")

    def test_close_flushes_engine(self, neg_pattern):
        engine = OutOfOrderEngine(neg_pattern, k=100)
        plan = QueryPlan(engine)
        plan.feed_many(
            [Event("A", 1, {"x": 1}), Event("C", 5, {"x": 1})]
        )
        assert plan.matches == []
        plan.close()
        assert len(plan.matches) == 1

    def test_plan_takes_what_it_records(self, neg_pattern):
        """The plan is its engine's receiver: a match lives in
        ``plan.matches`` only, so no snapshot carries a second copy."""
        events = [
            Event("A", 1, {"x": 1}), Event("C", 5, {"x": 1}),
            Event("A", 8, {"x": 2}), Event("C", 9, {"x": 2}),
        ]
        truth = {m.key() for m in OutOfOrderEngine(neg_pattern, k=100).run(events)}
        plan = QueryPlan(OutOfOrderEngine(neg_pattern, k=100))
        plan.run(events)
        assert len(truth) == 2
        assert {m.key() for m in plan.matches} == truth
        assert plan.engine.results == plan.engine.emissions == []
        assert plan.engine.stats.matches_emitted == 2


class TestMultiQueryPlan:
    def test_broadcasts_to_all_plans(self):
        q1 = seq("A a", "B b", within=10, name="q1")
        q2 = seq("B b", "C c", within=10, name="q2")
        multi = MultiQueryPlan(
            [
                QueryPlan(OutOfOrderEngine(q1, k=0)),
                QueryPlan(OutOfOrderEngine(q2, k=0)),
            ]
        )
        multi.run(make_events("A1 B2 C3"))
        assert len(multi.plans[0].matches) == 1
        assert len(multi.plans[1].matches) == 1

    def test_composite_outputs_interleaved(self):
        q1 = seq("A a", "B b", within=10, name="q1")
        q2 = seq("B b", "C c", within=10, name="q2")
        multi = MultiQueryPlan(
            [
                QueryPlan(
                    OutOfOrderEngine(q1, k=0),
                    transformation=CompositeEventFactory("AB"),
                ),
                QueryPlan(
                    OutOfOrderEngine(q2, k=0),
                    transformation=CompositeEventFactory("BC"),
                ),
            ]
        )
        produced = multi.run(make_events("A1 B2 C3"))
        assert {e.etype for e in produced} == {"AB", "BC"}

    def test_empty_plan_list_rejected(self):
        with pytest.raises(ConfigurationError):
            MultiQueryPlan([])


class TestCompositionChaining:
    def test_composites_feed_downstream_query(self):
        """CEP compositionality: composite events drive a second pattern."""
        inner = parse("PATTERN SEQ(A a, B b) WITHIN 10", name="inner")
        plan = QueryPlan(
            OutOfOrderEngine(inner, k=0),
            transformation=CompositeEventFactory("AB"),
        )
        composites = plan.run(make_events("A1 B2 A11 B13"))
        assert len(composites) == 2
        outer = parse("PATTERN SEQ(AB x, AB y) WITHIN 20", name="outer")
        downstream = OutOfOrderEngine(outer, k=0)
        downstream.run(composites)
        assert len(downstream.results) == 1
