"""Index planning and compiled predicate pipelines (repro.core.indexplan)."""

import pytest

from repro import Attr, Const, Eq, Event, Gt, Ne, seq
from repro.core.construction import SequenceConstructor
from repro.core.indexplan import compile_predicate, compile_term
from repro.core.stacks import Instance, StackSet
from repro.core.stats import EngineStats


def _x(var):
    return Attr(var, "x")


CHAIN3 = seq(
    "A a", "B b", "C c",
    where=[Eq(_x("a"), _x("b")), Eq(_x("b"), _x("c"))],
    within=20,
    name="chain3",
)


def build(pattern, placements, constructor):
    stacks = StackSet(pattern.length, indexed_attrs=constructor.indexed_attrs)
    instances = []
    for step, ts, arrival, attrs in placements:
        instance = Instance(
            Event(pattern.positive_steps[step].etype, ts, attrs), arrival
        )
        stacks.stacks[step].insert(instance)
        instances.append(instance)
    return stacks, instances


class TestPlanShape:
    def test_fully_joined_chain_indexes_every_step(self):
        constructor = SequenceConstructor(CHAIN3)
        # Every step is the non-trigger side of some equality for some
        # trigger position, so every stack indexes "x".
        assert constructor.indexed_attrs == [("x",), ("x",), ("x",)]

    def test_no_equality_plans_nothing(self):
        constructor = SequenceConstructor(seq("A a", "B b", within=10))
        assert constructor.indexed_attrs is None

    def test_index_false_plans_nothing(self):
        assert SequenceConstructor(CHAIN3, index=False).indexed_attrs is None

    def test_unoptimised_plans_nothing(self):
        # The index refines the range scan; without range narrowing
        # (E6 ablation) there is nothing for it to refine.
        assert SequenceConstructor(CHAIN3, optimize=False).indexed_attrs is None

    def test_ts_equality_not_indexed(self):
        pattern = seq(
            "A a", "B b", within=10,
            where=[Eq(Attr("a", "ts"), Attr("b", "ts"))],
        )
        assert SequenceConstructor(pattern).indexed_attrs is None

    def test_constant_equality_not_indexed(self):
        pattern = seq("A a", "B b", within=10, where=[Eq(_x("b"), Const(5))])
        assert SequenceConstructor(pattern).indexed_attrs is None


class TestIndexedConstruction:
    def test_lookup_serves_equal_candidates_only(self):
        pattern = seq("A a", "B b", within=10, where=[Eq(_x("a"), _x("b"))])
        constructor = SequenceConstructor(pattern)
        stacks, instances = build(
            pattern,
            [
                (0, 1, 1, {"x": 1}),
                (0, 2, 2, {"x": 2}),
                (0, 3, 3, {"x": 1}),
                (1, 5, 4, {"x": 1}),
            ],
            constructor,
        )
        stats = EngineStats()
        matches = constructor.construct(stacks, 1, instances[3], stats)
        assert sorted(tuple(e.ts for e in m.events) for m in matches) == [
            (1, 5), (3, 5),
        ]
        assert stats.index_hits == 1
        # Only the two equal-valued candidates were even considered.
        assert stats.partial_combinations == 2

    def test_miss_counted_when_no_value_matches(self):
        pattern = seq("A a", "B b", within=10, where=[Eq(_x("a"), _x("b"))])
        constructor = SequenceConstructor(pattern)
        stacks, instances = build(
            pattern,
            [(0, 1, 1, {"x": 1}), (1, 5, 2, {"x": 9})],
            constructor,
        )
        stats = EngineStats()
        assert constructor.construct(stacks, 1, instances[1], stats) == []
        assert stats.index_misses == 1
        assert stats.index_hits == 0

    def test_residual_predicate_still_runs_on_indexed_path(self):
        pattern = seq(
            "A a", "B b", within=10,
            where=[Eq(_x("a"), _x("b")), Ne(Attr("a", "y"), Attr("b", "y"))],
        )
        constructor = SequenceConstructor(pattern)
        stacks, instances = build(
            pattern,
            [
                (0, 1, 1, {"x": 1, "y": 7}),  # equal x, equal y: rejected
                (0, 2, 2, {"x": 1, "y": 8}),  # equal x, distinct y: kept
                (1, 5, 3, {"x": 1, "y": 7}),
            ],
            constructor,
        )
        stats = EngineStats()
        matches = constructor.construct(stacks, 1, instances[2], stats)
        assert [tuple(e.ts for e in m.events) for m in matches] == [(2, 5)]
        # The equality was index-satisfied: only the residual Ne ran,
        # once per equal-x candidate.
        assert stats.predicate_evaluations == 2

    def test_plain_stackset_falls_back_to_range_scan(self):
        # An indexed plan probing unindexed stacks must degrade to the
        # range scan, not crash or miss matches.
        pattern = seq("A a", "B b", within=10, where=[Eq(_x("a"), _x("b"))])
        constructor = SequenceConstructor(pattern)
        stacks = StackSet(pattern.length)  # no indexed_attrs
        a = Instance(Event("A", 1, {"x": 1}), 1)
        b = Instance(Event("B", 5, {"x": 1}), 2)
        stacks.stacks[0].insert(a)
        stacks.stacks[1].insert(b)
        stats = EngineStats()
        matches = constructor.construct(stacks, 1, b, stats)
        assert len(matches) == 1
        assert stats.index_hits == 0
        assert stats.index_misses == 0

    def test_indexed_evaluates_fewer_predicates_same_matches(self):
        import random

        rng = random.Random(3)
        indexed = SequenceConstructor(CHAIN3)
        range_only = SequenceConstructor(CHAIN3, index=False)
        stacks_i = StackSet(CHAIN3.length, indexed_attrs=indexed.indexed_attrs)
        stacks_r = StackSet(CHAIN3.length)
        placements = []
        for arrival in range(1, 150):
            step = rng.randint(0, 2)
            event = Event(
                CHAIN3.positive_steps[step].etype,
                rng.randint(0, 80),
                {"x": rng.randint(0, 4)},
            )
            placements.append((step, Instance(event, arrival)))
        stats_i, stats_r = EngineStats(), EngineStats()
        for step, instance in placements:
            stacks_i.stacks[step].insert(instance)
            stacks_r.stacks[step].insert(Instance(instance.event, instance.arrival))
            got = {
                m.key() for m in indexed.construct(stacks_i, step, instance, stats_i)
            }
            want = {
                m.key() for m in range_only.construct(stacks_r, step, instance, stats_r)
            }
            assert got == want
        assert stats_i.partial_combinations < stats_r.partial_combinations
        assert stats_i.predicate_evaluations < stats_r.predicate_evaluations
        assert stats_i.index_hits > 0


class TestCompiledPieces:
    def test_ts_term_reads_timestamp(self):
        read = compile_term(Attr("a", "ts"))
        assert read({"a": Event("A", 42)}) == 42

    def test_const_term(self):
        assert compile_term(Const(7))({}) == 7

    def test_missing_attribute_raises_descriptive_error(self):
        read = compile_term(Attr("a", "nope"))
        with pytest.raises(KeyError):
            read({"a": Event("A", 1, {"x": 1})})

    def test_heterogeneous_comparison_is_false_not_raised(self):
        # Same contract as the interpreted path: TypeError -> False.
        check = compile_predicate(Gt(Attr("a", "x"), Const(5)))
        assert check({"a": Event("A", 1, {"x": "high"})}) is False
