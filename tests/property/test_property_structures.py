"""Property-based tests on core data structures and stream substrates."""

import random

from hypothesis import given, settings, strategies as st

from repro import Event
from repro.core.clock import StreamClock
from repro.core.stacks import Instance, NegativeStore, SortedStack
from repro.streams import (
    BurstDropoutModel,
    RandomDelayModel,
    measure_disorder,
    required_k,
)
from repro.streams.kslack import MaxObservedK, QuantileK


timestamps = st.lists(st.integers(min_value=0, max_value=1000), min_size=0, max_size=200)


@given(timestamps)
@settings(max_examples=100, deadline=None)
def test_sorted_stack_invariant(ts_list):
    stack = SortedStack(0)
    for arrival, ts in enumerate(ts_list):
        stack.insert(Instance(Event("A", ts), arrival))
    observed = [i.sort_key() for i in stack]
    assert observed == sorted(observed)
    assert len(stack) == len(ts_list)


@given(timestamps, st.integers(min_value=0, max_value=1000))
@settings(max_examples=100, deadline=None)
def test_sorted_stack_purge_removes_exactly_prefix(ts_list, threshold):
    stack = SortedStack(0)
    for arrival, ts in enumerate(ts_list):
        stack.insert(Instance(Event("A", ts), arrival))
    expected_kept = sorted(ts for ts in ts_list if ts > threshold)
    stack.purge_through(threshold)
    assert [i.ts for i in stack] == expected_kept


@given(timestamps, st.integers(min_value=0, max_value=1000), st.integers(min_value=0, max_value=1000))
@settings(max_examples=100, deadline=None)
def test_sorted_stack_range_queries_match_bruteforce(ts_list, a, b):
    lo, hi = min(a, b), max(a, b)
    stack = SortedStack(0)
    for arrival, ts in enumerate(ts_list):
        stack.insert(Instance(Event("A", ts), arrival))
    assert [i.ts for i in stack.range_after(lo, max_ts=hi)] == sorted(
        ts for ts in ts_list if lo < ts <= hi
    )


@given(timestamps)
@settings(max_examples=100, deadline=None)
def test_negative_store_between_matches_bruteforce(ts_list):
    store = NegativeStore(["B"])
    events = [Event("B", ts) for ts in ts_list]
    for event in events:
        store.insert(event)
    lo, hi = 100, 600
    expected = sorted(
        (e.ts, e.eid) for e in events if lo < e.ts < hi
    )
    observed = [(e.ts, e.eid) for e in store.between("B", lo, hi)]
    assert observed == expected


@given(timestamps, st.one_of(st.none(), st.integers(min_value=0, max_value=50)))
@settings(max_examples=100, deadline=None)
def test_clock_horizon_monotone(ts_list, k):
    clock = StreamClock(k)
    previous_horizon = clock.horizon()
    for ts in ts_list:
        clock.observe(Event("A", ts))
        horizon = clock.horizon()
        assert horizon >= previous_horizon
        previous_horizon = horizon
        if k is not None:
            assert horizon <= clock.now - k - 1 or horizon == -1 or True
            # precise form:
            assert horizon == max(-1, clock.now - k - 1)


@given(timestamps, st.floats(min_value=0, max_value=1), st.integers(min_value=0, max_value=30), st.integers())
@settings(max_examples=80, deadline=None)
def test_random_delay_model_is_permutation_with_bounded_k(ts_list, rate, max_delay, seed):
    events = [Event("A", ts) for ts in sorted(ts_list)]
    model = RandomDelayModel(rate, max_delay, seed=seed)
    arrival = model.apply(events)
    assert sorted(e.eid for e in arrival) == sorted(e.eid for e in events)
    assert required_k(arrival) <= max_delay


@given(
    timestamps,
    st.floats(min_value=0, max_value=0.3),
    st.integers(min_value=1, max_value=30),
    st.integers(),
)
@settings(max_examples=80, deadline=None)
def test_burst_model_is_permutation(ts_list, fail_rate, outage, seed):
    events = [Event("A", ts) for ts in sorted(ts_list)]
    arrival = BurstDropoutModel(fail_rate, outage, seed=seed).apply(events)
    assert sorted(e.eid for e in arrival) == sorted(e.eid for e in events)


@given(st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=300))
@settings(max_examples=80, deadline=None)
def test_max_observed_k_dominates_all_delays(ts_list):
    events = [Event("A", ts) for ts in ts_list]
    estimator = MaxObservedK()
    for event in events:
        estimator.observe(event)
    assert estimator.current() == required_k(events)


@given(st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=300))
@settings(max_examples=50, deadline=None)
def test_quantile_k_never_exceeds_max_k(ts_list):
    events = [Event("A", ts) for ts in ts_list]
    quantile = QuantileK(quantile=0.9, window=1000)
    maximum = MaxObservedK()
    for event in events:
        quantile.observe(event)
        maximum.observe(event)
    assert quantile.current() <= maximum.current()


@given(timestamps)
@settings(max_examples=80, deadline=None)
def test_measure_disorder_rate_bounds(ts_list):
    events = [Event("A", ts) for ts in ts_list]
    stats = measure_disorder(events)
    assert 0.0 <= stats.rate <= 1.0
    assert stats.max_delay >= 0
    if stats.displaced == 0:
        assert stats.max_delay == 0
