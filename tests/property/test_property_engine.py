"""Property-based tests: engine == oracle on arbitrary traces & arrivals.

These are the library's strongest correctness evidence: hypothesis
generates random event traces, random patterns knobs, and random
K-bounded arrival permutations; the out-of-order engine must equal the
offline oracle on every one of them, and the exactly-once/purge/seal
machinery must hold its invariants.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    Event,
    OfflineOracle,
    OutOfOrderEngine,
    PurgePolicy,
    ReorderingEngine,
    parse,
    seq,
)
from repro.core.partition import PartitionedEngine
from helpers import bounded_shuffle, late_split


def trace_strategy(types="ABCX", max_ts=60, max_len=60, attr_range=3):
    event = st.tuples(
        st.sampled_from(types),
        st.integers(min_value=0, max_value=max_ts),
        st.integers(min_value=0, max_value=attr_range - 1),
    )
    return st.lists(event, min_size=0, max_size=max_len).map(
        lambda items: [Event(t, ts, {"x": x}) for t, ts, x in items]
    )


PATTERNS = [
    seq("A a", "B b", within=10, name="p2"),
    seq("A a", "B b", "C c", within=20, name="p3"),
    seq("A a", "!B b", "C c", within=15, name="pneg"),
    seq("!B b", "A a", "C c", within=15, name="plead"),
    seq("A a", "C c", "!B b", within=15, name="ptrail"),
    seq("A first", "A second", within=12, name="prep"),
]


@given(
    trace=trace_strategy(),
    pattern_index=st.integers(min_value=0, max_value=len(PATTERNS) - 1),
    k=st.integers(min_value=0, max_value=30),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=120, deadline=None)
def test_ooo_engine_equals_oracle_on_bounded_permutations(trace, pattern_index, k, seed):
    pattern = PATTERNS[pattern_index]
    arrival = bounded_shuffle(trace, k=k, seed=seed)
    truth = OfflineOracle(pattern).evaluate_set(trace)
    engine = OutOfOrderEngine(pattern, k=k)
    engine.run(arrival)
    assert engine.result_set() == truth
    assert engine.stats.late_dropped == 0


@given(
    trace=trace_strategy(),
    pattern_index=st.integers(min_value=0, max_value=len(PATTERNS) - 1),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=80, deadline=None)
def test_unbounded_k_handles_arbitrary_permutations(trace, pattern_index, seed):
    pattern = PATTERNS[pattern_index]
    arrival = trace[:]
    random.Random(seed).shuffle(arrival)
    truth = OfflineOracle(pattern).evaluate_set(trace)
    engine = OutOfOrderEngine(pattern, k=None)
    engine.run(arrival)
    assert engine.result_set() == truth


@given(
    trace=trace_strategy(max_len=40),
    k=st.integers(min_value=0, max_value=25),
    seed=st.integers(min_value=0, max_value=10_000),
    interval=st.integers(min_value=1, max_value=64),
)
@settings(max_examples=60, deadline=None)
def test_purge_policies_never_change_results(trace, k, seed, interval):
    pattern = PATTERNS[2]  # negation pattern: hardest for purge
    arrival = bounded_shuffle(trace, k=k, seed=seed)
    results = []
    for policy in (PurgePolicy.eager(), PurgePolicy.lazy(interval), PurgePolicy.none()):
        engine = OutOfOrderEngine(pattern, k=k, purge=policy)
        engine.run(arrival)
        results.append(engine.result_set())
    assert results[0] == results[1] == results[2]


@given(
    trace=trace_strategy(max_len=40),
    k=st.integers(min_value=0, max_value=25),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_exactly_once_no_duplicate_emissions(trace, k, seed):
    pattern = PATTERNS[1]
    arrival = bounded_shuffle(trace, k=k, seed=seed)
    engine = OutOfOrderEngine(pattern, k=k)
    engine.run(arrival)
    keys = [m.key() for m in engine.results]
    assert len(keys) == len(set(keys))


@given(
    trace=trace_strategy(max_len=40),
    k=st.integers(min_value=0, max_value=25),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_reorder_engine_equals_oracle(trace, k, seed):
    pattern = PATTERNS[2]
    arrival = bounded_shuffle(trace, k=k, seed=seed)
    truth = OfflineOracle(pattern).evaluate_set(trace)
    engine = ReorderingEngine(pattern, k=k)
    engine.run(arrival)
    assert engine.result_set() == truth


@given(
    trace=trace_strategy(max_len=40),
    k=st.integers(min_value=0, max_value=25),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_speculative_net_results_equal_oracle(trace, k, seed):
    pattern = PATTERNS[2]
    arrival = bounded_shuffle(trace, k=k, seed=seed)
    truth = OfflineOracle(pattern).evaluate_set(trace)
    engine = OutOfOrderEngine(pattern, k=k, speculative=True)
    engine.run(arrival)
    log = engine.speculation
    assert log.net_keys() == truth == engine.result_set()
    # Retractions only ever withdraw speculative emissions, each once.
    emitted = {record.seq for record in log.emissions}
    withdrawn = [retraction.ref_seq for retraction in log.retractions]
    assert set(withdrawn) <= emitted
    assert len(withdrawn) == len(set(withdrawn))


@given(
    trace=trace_strategy(max_len=50),
    seed=st.integers(min_value=0, max_value=10_000),
    k=st.integers(min_value=0, max_value=20),
)
@settings(max_examples=60, deadline=None)
def test_emission_never_precedes_trigger(trace, seed, k):
    pattern = PATTERNS[1]
    arrival = bounded_shuffle(trace, k=k, seed=seed)
    engine = OutOfOrderEngine(pattern, k=k)
    engine.run(arrival)
    for record in engine.emissions:
        assert record.emitted_seq >= record.match.detected_at


#: Keyed on ``x``, so every family can run them: SEQ, negation (inner,
#: leading), Kleene and an equality chain.
KEYED = [
    parse("PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 10"),
    parse("PATTERN SEQ(A a, !B b, C c) WHERE a.x == c.x AND b.x == a.x WITHIN 15"),
    parse("PATTERN SEQ(!B b, A a, C c) WHERE a.x == c.x AND b.x == a.x WITHIN 15"),
    parse("PATTERN SEQ(A a, B+ bs, C c) WHERE a.x == c.x AND bs.x == a.x WITHIN 20"),
    parse("PATTERN SEQ(A a, B b, C c) WHERE a.x == b.x AND b.x == c.x WITHIN 20"),
]
LATE_FAMILIES = {
    "ooo": lambda pattern, k: OutOfOrderEngine(pattern, k=k),
    "partitioned": lambda pattern, k: PartitionedEngine(pattern, k=k, punctuate_every=4),
}


@pytest.mark.parametrize("family", list(LATE_FAMILIES))
@given(
    trace=trace_strategy(max_len=50),
    pattern_index=st.integers(min_value=0, max_value=len(KEYED) - 1),
    disorder=st.integers(min_value=1, max_value=30),
    k=st.integers(min_value=0, max_value=29),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=120, deadline=None)
def test_late_events_are_counted_and_dropped(
    family, trace, pattern_index, disorder, k, seed
):
    """K below the trace's disorder: the one late policy's whole contract."""
    pattern = KEYED[pattern_index]
    k = min(k, disorder - 1)
    arrival = bounded_shuffle(trace, k=disorder, seed=seed)
    on_time, late = late_split(arrival, k)
    engine = LATE_FAMILIES[family](pattern, k)
    engine.run(arrival)
    assert engine.stats.late_dropped == len(late)
    assert engine.result_set() == OfflineOracle(pattern).evaluate_set(on_time)
