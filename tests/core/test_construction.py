"""Unit tests for sequence construction (repro.core.construction)."""

import pytest

from repro import Attr, Const, Event, Eq, Gt, Pattern, Step, seq
from repro.core.construction import SequenceConstructor
from repro.core.stacks import Instance, StackSet
from repro.core.stats import EngineStats


def build(pattern, placements):
    """placements: list of (step, ts, arrival[, attrs]) -> StackSet + instances."""
    stacks = StackSet(pattern.length)
    instances = []
    for placement in placements:
        step, ts, arrival = placement[:3]
        attrs = placement[3] if len(placement) > 3 else None
        instance = Instance(Event(pattern.positive_steps[step].etype, ts, attrs), arrival)
        stacks.stacks[step].insert(instance)
        instances.append(instance)
    return stacks, instances


class TestBasicConstruction:
    def test_simple_completion_on_last_step(self):
        pattern = seq("A a", "B b", within=10)
        stacks, instances = build(pattern, [(0, 1, 1), (1, 3, 2)])
        constructor = SequenceConstructor(pattern)
        matches = constructor.construct(stacks, 1, instances[1])
        assert len(matches) == 1
        assert [e.ts for e in matches[0].events] == [1, 3]

    def test_all_combinations_enumerated(self):
        pattern = seq("A a", "B b", within=10)
        stacks, instances = build(
            pattern, [(0, 1, 1), (0, 2, 2), (1, 5, 3)]
        )
        constructor = SequenceConstructor(pattern)
        matches = constructor.construct(stacks, 1, instances[2])
        assert len(matches) == 2

    def test_window_respected(self):
        pattern = seq("A a", "B b", within=5)
        stacks, instances = build(pattern, [(0, 1, 1), (1, 7, 2)])
        constructor = SequenceConstructor(pattern)
        assert constructor.construct(stacks, 1, instances[1]) == []

    def test_window_boundary_inclusive(self):
        pattern = seq("A a", "B b", within=5)
        stacks, instances = build(pattern, [(0, 1, 1), (1, 6, 2)])
        constructor = SequenceConstructor(pattern)
        assert len(constructor.construct(stacks, 1, instances[1])) == 1

    def test_strict_timestamp_order_required(self):
        pattern = seq("A a", "B b", within=10)
        stacks, instances = build(pattern, [(0, 3, 1), (1, 3, 2)])
        constructor = SequenceConstructor(pattern)
        assert constructor.construct(stacks, 1, instances[1]) == []

    def test_single_step_pattern(self):
        pattern = seq("A a", within=10)
        stacks, instances = build(pattern, [(0, 1, 1)])
        constructor = SequenceConstructor(pattern)
        matches = constructor.construct(stacks, 0, instances[0])
        assert len(matches) == 1


class TestExactlyOnce:
    def test_only_earlier_arrivals_participate(self):
        pattern = seq("A a", "B b", within=10)
        # B arrived (arrival 1) BEFORE A (arrival 2): triggering on B
        # must not see A; triggering on A must see B.
        stacks, instances = build(pattern, [(1, 3, 1), (0, 1, 2)])
        constructor = SequenceConstructor(pattern)
        b_trigger = constructor.construct(stacks, 1, instances[0])
        a_trigger = constructor.construct(stacks, 0, instances[1])
        assert b_trigger == []
        assert len(a_trigger) == 1

    def test_no_duplicates_across_triggers(self):
        pattern = seq("A a", "B b", "C c", within=20)
        # Arrival order: C(1), A(2), B(3) — fully inverted.
        stacks, instances = build(
            pattern, [(2, 9, 1), (0, 1, 2), (1, 5, 3)]
        )
        constructor = SequenceConstructor(pattern)
        all_matches = []
        for step, instance in ((2, instances[0]), (0, instances[1]), (1, instances[2])):
            all_matches.extend(constructor.construct(stacks, step, instance))
        assert len(all_matches) == 1
        assert all_matches[0].detected_at == 3  # emitted by the last arrival

    def test_mid_step_trigger_completes_existing_frame(self):
        pattern = seq("A a", "B b", "C c", within=20)
        # A and C arrived; late B completes the match.
        stacks, instances = build(
            pattern, [(0, 1, 1), (2, 9, 2), (1, 5, 3)]
        )
        constructor = SequenceConstructor(pattern)
        matches = constructor.construct(stacks, 1, instances[2])
        assert len(matches) == 1
        assert [e.ts for e in matches[0].events] == [1, 5, 9]


class TestPredicates:
    def test_staged_predicates_filter(self):
        pattern = Pattern(
            [Step("A", "a"), Step("B", "b")],
            where=[Eq(Attr("a", "x"), Attr("b", "x"))],
            within=10,
        )
        stacks, instances = build(
            pattern,
            [(0, 1, 1, {"x": 1}), (0, 2, 2, {"x": 2}), (1, 5, 3, {"x": 1})],
        )
        constructor = SequenceConstructor(pattern)
        matches = constructor.construct(stacks, 1, instances[2])
        assert len(matches) == 1
        assert matches[0].events[0]["x"] == 1

    def test_predicate_stats_counted(self):
        pattern = Pattern(
            [Step("A", "a"), Step("B", "b")],
            where=[Eq(Attr("a", "x"), Attr("b", "x"))],
            within=10,
        )
        stacks, instances = build(
            pattern, [(0, 1, 1, {"x": 1}), (1, 5, 2, {"x": 1})]
        )
        constructor = SequenceConstructor(pattern)
        stats = EngineStats()
        constructor.construct(stacks, 1, instances[1], stats)
        assert stats.predicate_evaluations >= 1
        assert stats.construction_triggers == 1
        assert stats.partial_combinations >= 1

    def test_constant_predicate_on_middle_step(self):
        pattern = Pattern(
            [Step("A", "a"), Step("B", "b"), Step("C", "c")],
            where=[Gt(Attr("b", "x"), Const(5))],
            within=20,
        )
        stacks, instances = build(
            pattern,
            [(0, 1, 1), (1, 3, 2, {"x": 3}), (1, 4, 3, {"x": 9}), (2, 8, 4)],
        )
        constructor = SequenceConstructor(pattern)
        matches = constructor.construct(stacks, 2, instances[3])
        assert len(matches) == 1
        assert matches[0].events[1]["x"] == 9


class TestOptimizationEquivalence:
    def test_optimised_and_naive_agree(self):
        import random

        rng = random.Random(11)
        pattern = seq("A a", "B b", "C c", within=15)
        stacks = StackSet(3)
        instances = []
        for arrival in range(1, 120):
            step = rng.randint(0, 2)
            instance = Instance(
                Event(pattern.positive_steps[step].etype, rng.randint(0, 60)), arrival
            )
            stacks.stacks[step].insert(instance)
            instances.append((step, instance))
        fast = SequenceConstructor(pattern, optimize=True)
        slow = SequenceConstructor(pattern, optimize=False)
        for step, instance in instances:
            fast_matches = {m.key() for m in fast.construct(stacks, step, instance)}
            slow_matches = {m.key() for m in slow.construct(stacks, step, instance)}
            assert fast_matches == slow_matches

    def test_optimised_explores_fewer_partials(self):
        pattern = seq("A a", "B b", "C c", within=5)
        stacks = StackSet(3)
        trigger = None
        arrival = 0
        for ts in range(0, 200, 2):
            arrival += 1
            stacks.stacks[0].insert(Instance(Event("A", ts), arrival))
        for ts in range(1, 200, 2):
            arrival += 1
            stacks.stacks[1].insert(Instance(Event("B", ts), arrival))
        arrival += 1
        trigger = Instance(Event("C", 199), arrival)
        stacks.stacks[2].insert(trigger)
        fast_stats, slow_stats = EngineStats(), EngineStats()
        fast = SequenceConstructor(pattern, optimize=True)
        slow = SequenceConstructor(pattern, optimize=False)
        assert {m.key() for m in fast.construct(stacks, 2, trigger, fast_stats)} == {
            m.key() for m in slow.construct(stacks, 2, trigger, slow_stats)
        }
        assert fast_stats.partial_combinations < slow_stats.partial_combinations
