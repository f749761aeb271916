"""Unit tests for Active Instance Stacks (repro.core.stacks)."""

import random

import pytest

from repro import Event
from repro.core.stacks import Instance, NegativeStore, SortedStack, StackSet


def inst(ts: int, arrival: int = 0, etype: str = "A") -> Instance:
    return Instance(Event(etype, ts), arrival)


class TestSortedStackInsertion:
    def test_in_order_appends(self):
        stack = SortedStack(0)
        for ts in (1, 3, 5):
            stack.insert(inst(ts))
        assert [i.ts for i in stack] == [1, 3, 5]

    def test_out_of_order_splices_into_position(self):
        stack = SortedStack(0)
        stack.insert(inst(1))
        stack.insert(inst(5))
        stack.insert(inst(3))  # late
        assert [i.ts for i in stack] == [1, 3, 5]

    def test_insert_returns_index(self):
        stack = SortedStack(0)
        assert stack.insert(inst(5)) == 0
        assert stack.insert(inst(1)) == 0
        assert stack.insert(inst(9)) == 2

    def test_ties_ordered_by_eid(self):
        stack = SortedStack(0)
        first = inst(5)
        second = inst(5)
        stack.insert(second)
        stack.insert(first)
        assert [i.event.eid for i in stack] == sorted(i.event.eid for i in stack)

    def test_stays_sorted_under_random_insertion(self):
        rng = random.Random(7)
        stack = SortedStack(0)
        timestamps = [rng.randint(0, 100) for _ in range(200)]
        for ts in timestamps:
            stack.insert(inst(ts))
        observed = [i.ts for i in stack]
        assert observed == sorted(observed)
        assert stack.inserted == 200


class TestSortedStackQueries:
    @pytest.fixture
    def stack(self):
        s = SortedStack(0)
        for ts in (2, 4, 6, 8, 10):
            s.insert(inst(ts))
        return s

    def test_range_after_exclusive(self, stack):
        assert [i.ts for i in stack.range_after(6)] == [8, 10]

    def test_range_after_with_max_inclusive(self, stack):
        assert [i.ts for i in stack.range_after(2, max_ts=8)] == [4, 6, 8]

    def test_min_max_ts(self, stack):
        assert stack.min_ts() == 2
        assert stack.max_ts() == 10

    def test_empty_stack_queries(self):
        stack = SortedStack(0)
        assert stack.min_ts() is None
        assert stack.max_ts() is None
        assert stack.range_after(0) == []


class TestSortedStackPurge:
    def test_purge_through_removes_prefix(self):
        stack = SortedStack(0)
        for ts in (2, 4, 6, 8):
            stack.insert(inst(ts))
        removed = stack.purge_through(5)
        assert removed == 2
        assert [i.ts for i in stack] == [6, 8]
        assert stack.purged == 2

    def test_purge_inclusive_boundary(self):
        stack = SortedStack(0)
        for ts in (2, 4, 6):
            stack.insert(inst(ts))
        assert stack.purge_through(4) == 2
        assert [i.ts for i in stack] == [6]

    def test_purge_nothing(self):
        stack = SortedStack(0)
        stack.insert(inst(5))
        assert stack.purge_through(4) == 0
        assert len(stack) == 1

    def test_purge_after_ooo_insertion_still_prefix(self):
        stack = SortedStack(0)
        for ts in (10, 2, 8, 4, 6):
            stack.insert(inst(ts))
        stack.purge_through(6)
        assert [i.ts for i in stack] == [8, 10]

    def test_clear(self):
        stack = SortedStack(0)
        for ts in (1, 2, 3):
            stack.insert(inst(ts))
        stack.clear()
        assert len(stack) == 0
        assert stack.purged == 3


def ainst(ts: int, part, arrival: int = 0, etype: str = "A") -> Instance:
    return Instance(Event(etype, ts, {"part": part}), arrival)


class TestEqualityIndex:
    def test_candidates_window_semantics(self):
        # Same contract as range_after: lower exclusive, upper inclusive.
        stack = SortedStack(0, indexed_attrs=("part",))
        for ts in (2, 4, 6, 8, 10):
            stack.insert(ainst(ts, part=ts % 2))
        even = stack.equality_candidates("part", 0, 2, 8)
        assert [i.ts for i in even] == [4, 6, 8]
        odd = stack.equality_candidates("part", 1, 0, 100)
        assert odd == ()

    def test_splice_insert_keeps_postings_sorted(self):
        stack = SortedStack(0, indexed_attrs=("part",))
        for ts in (10, 2, 8, 4, 6):
            stack.insert(ainst(ts, part=1))
        got = stack.equality_candidates("part", 1, 0, 100)
        assert [i.ts for i in got] == [2, 4, 6, 8, 10]

    def test_duplicate_timestamps_tie_on_eid(self):
        stack = SortedStack(0, indexed_attrs=("part",))
        first = ainst(5, part=1)
        second = ainst(5, part=1)
        stack.insert(second)
        stack.insert(first)
        got = stack.equality_candidates("part", 1, 4, 5)
        assert [i.event.eid for i in got] == sorted(i.event.eid for i in got)

    def test_unindexed_attr_returns_none(self):
        stack = SortedStack(0, indexed_attrs=("part",))
        stack.insert(ainst(1, part=1))
        assert stack.equality_candidates("other", 1, 0, 10) is None
        plain = SortedStack(0)
        plain.insert(ainst(1, part=1))
        assert plain.equality_candidates("part", 1, 0, 10) is None

    def test_missing_attr_disables_index_stickily(self):
        stack = SortedStack(0, indexed_attrs=("part",))
        stack.insert(ainst(1, part=1))
        stack.insert(Instance(Event("A", 2, {}), 0))  # no "part"
        assert stack.equality_candidates("part", 1, 0, 10) is None
        # Sticky: later well-formed inserts do not resurrect the index.
        stack.insert(ainst(3, part=1))
        assert stack.equality_candidates("part", 1, 0, 10) is None

    def test_unhashable_attr_value_disables_index(self):
        stack = SortedStack(0, indexed_attrs=("part",))
        stack.insert(ainst(1, part=[1, 2]))
        assert stack.equality_candidates("part", 1, 0, 10) is None

    def test_unhashable_probe_value_returns_none(self):
        stack = SortedStack(0, indexed_attrs=("part",))
        stack.insert(ainst(1, part=1))
        assert stack.equality_candidates("part", [1], 0, 10) is None

    def test_nan_probe_returns_no_candidates(self):
        # NaN == NaN is False, so the equality predicate rejects every
        # candidate; the index must agree (empty), not hit NaN's bucket.
        nan = float("nan")
        stack = SortedStack(0, indexed_attrs=("part",))
        stack.insert(ainst(1, part=nan))
        assert stack.equality_candidates("part", nan, 0, 10) == ()

    def test_purge_keeps_postings_consistent(self):
        stack = SortedStack(0, indexed_attrs=("part",))
        for ts in (2, 4, 6, 8):
            stack.insert(ainst(ts, part=ts % 2))
        stack.purge_through(5)
        assert [i.ts for i in stack.equality_candidates("part", 0, 0, 100)] == [6, 8]
        assert stack.equality_candidates("part", 1, 0, 100) == ()

    def test_drop_oldest_keeps_postings_consistent(self):
        stack = SortedStack(0, indexed_attrs=("part",))
        for ts in (1, 2, 3, 4):
            stack.insert(ainst(ts, part=1))
        stack.drop_oldest(3)
        got = stack.equality_candidates("part", 1, 0, 100)
        assert [i.ts for i in got] == [4]

    def test_clear_drops_postings(self):
        stack = SortedStack(0, indexed_attrs=("part",))
        stack.insert(ainst(1, part=1))
        stack.clear()
        assert stack.equality_candidates("part", 1, 0, 100) == ()

    def test_restore_rebuilds_postings(self):
        stack = SortedStack(0, indexed_attrs=("part",))
        for ts in (7, 3, 5):
            stack.insert(ainst(ts, part=ts % 2))
        state = stack.snapshot_state()
        fresh = SortedStack(0, indexed_attrs=("part",))
        fresh.restore_state(state)
        got = fresh.equality_candidates("part", 1, 0, 100)
        assert [i.ts for i in got] == [3, 5, 7]

    def test_restore_preserves_disabled_marker_after_purge(self):
        # The offending instance may be long gone by checkpoint time;
        # the restored stack must still refuse to answer.
        stack = SortedStack(0, indexed_attrs=("part",))
        stack.insert(Instance(Event("A", 1, {}), 0))  # disables "part"
        stack.insert(ainst(2, part=1))
        stack.purge_through(1)
        fresh = SortedStack(0, indexed_attrs=("part",))
        fresh.restore_state(stack.snapshot_state())
        assert fresh.equality_candidates("part", 1, 0, 100) is None

    def test_matches_brute_force_under_random_churn(self):
        rng = random.Random(11)
        stack = SortedStack(0, indexed_attrs=("part",))
        low_water = 0
        for __ in range(400):
            action = rng.random()
            if action < 0.75:
                ts = rng.randint(low_water + 1, low_water + 50)
                stack.insert(ainst(ts, part=rng.randint(0, 3)))
            elif action < 0.9 and len(stack):
                low_water = max(low_water, rng.choice([i.ts for i in stack]))
                stack.purge_through(low_water)
            elif len(stack):
                stack.drop_oldest(rng.randint(1, 3))
            lo = rng.randint(0, low_water + 50)
            hi = lo + rng.randint(0, 60)
            part = rng.randint(0, 3)
            got = stack.equality_candidates("part", part, lo, hi)
            want = [i for i in stack.range_after(lo, hi) if i.event["part"] == part]
            assert list(got) == want

    def test_stackset_routes_indexed_attrs_per_step(self):
        stacks = StackSet(3, indexed_attrs=[(), ("part",), ()])
        assert stacks[0].indexed_attrs == ()
        assert stacks[1].indexed_attrs == ("part",)
        stacks[1].insert(ainst(4, part=2))
        assert [i.ts for i in stacks[1].equality_candidates("part", 2, 0, 10)] == [4]
        assert stacks[0].equality_candidates("part", 2, 0, 10) is None


class TestStackSet:
    def test_sizes_and_total(self):
        stacks = StackSet(3)
        stacks[0].insert(inst(1))
        stacks[0].insert(inst(2))
        stacks[2].insert(inst(3))
        assert stacks.sizes() == [2, 0, 1]
        assert stacks.size() == 3
        assert len(stacks) == 3

    def test_iteration(self):
        stacks = StackSet(2)
        assert [s.step_index for s in stacks] == [0, 1]


class TestNegativeStore:
    def test_relevance(self):
        store = NegativeStore(["B"])
        assert store.relevant("B")
        assert not store.relevant("A")

    def test_between_exclusive_bounds(self):
        store = NegativeStore(["B"])
        for ts in (2, 4, 6, 8):
            store.insert(Event("B", ts))
        assert [e.ts for e in store.between("B", 2, 8)] == [4, 6]

    def test_between_unknown_type(self):
        store = NegativeStore(["B"])
        assert store.between("Z", 0, 10) == []

    def test_out_of_order_insert_keeps_sorted(self):
        store = NegativeStore(["B"])
        for ts in (8, 2, 6, 4):
            store.insert(Event("B", ts))
        assert [e.ts for e in store.between("B", 0, 100)] == [2, 4, 6, 8]

    def test_purge_through(self):
        store = NegativeStore(["B", "C"])
        store.insert(Event("B", 2))
        store.insert(Event("B", 9))
        store.insert(Event("C", 4))
        removed = store.purge_through(5)
        assert removed == 2
        assert store.size() == 1
        assert store.purged == 2

    def test_insert_counts(self):
        store = NegativeStore(["B"])
        store.insert(Event("B", 1))
        store.insert(Event("B", 2))
        assert store.inserted == 2
