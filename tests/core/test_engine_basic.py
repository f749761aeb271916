"""OutOfOrderEngine on ordered input (repro.core.engine)."""

import pytest

from repro import (
    Event,
    OfflineOracle,
    OutOfOrderEngine,
    Punctuation,
    PurgePolicy,
    parse,
    seq,
)
from helpers import engine_vs_oracle, make_events


class TestOrderedStreams:
    def test_single_match(self, plain_seq2):
        engine = OutOfOrderEngine(plain_seq2, k=0)
        assert engine.feed(Event("A", 1)) == []
        emitted = engine.feed(Event("B", 3))
        assert len(emitted) == 1
        assert [e.ts for e in emitted[0].events] == [1, 3]

    def test_match_emitted_immediately_on_completion(self, plain_seq2):
        engine = OutOfOrderEngine(plain_seq2, k=0)
        engine.feed(Event("A", 1))
        emitted = engine.feed(Event("B", 2))
        assert emitted and emitted[0].detected_at == engine.arrival_index

    def test_agrees_with_oracle_on_random_trace(self, abc_pattern, random_trace):
        engine_vs_oracle(abc_pattern, random_trace, k=0)

    def test_all_combinations_found(self, plain_seq2):
        engine = OutOfOrderEngine(plain_seq2, k=0)
        engine.run(make_events("A1 A2 B3 B4"))
        assert len(engine.results) == 4

    def test_window_excludes_stale_prefix(self, plain_seq2):
        engine = OutOfOrderEngine(plain_seq2, k=0)
        engine.run(make_events("A1 B20"))
        assert engine.results == []

    def test_noise_types_ignored(self, plain_seq2):
        engine = OutOfOrderEngine(plain_seq2, k=0)
        engine.run(make_events("A1 Z2 Z3 B4"))
        assert len(engine.results) == 1
        assert engine.stats.events_ignored == 2

    def test_repeated_type_pattern(self):
        pattern = seq("A first", "A second", within=10)
        engine = OutOfOrderEngine(pattern, k=0)
        engine.run(make_events("A1 A3 A5"))
        # (1,3), (1,5), (3,5)
        assert len(engine.results) == 3

    def test_single_step_pattern(self):
        pattern = seq("A a", within=10)
        engine = OutOfOrderEngine(pattern, k=0)
        engine.run(make_events("A1 Z2 A5"))
        assert len(engine.results) == 2

    def test_timestamp_ties_never_match_within_pair(self, plain_seq2):
        engine = OutOfOrderEngine(plain_seq2, k=0)
        engine.run(make_events("A5 B5"))
        assert engine.results == []

    def test_results_accumulate_across_feeds(self, plain_seq2):
        engine = OutOfOrderEngine(plain_seq2, k=0)
        for event in make_events("A1 B2 A3 B4"):
            engine.feed(event)
        assert len(engine.results) == 3  # (1,2), (1,4), (3,4)


class TestPredicateIntegration:
    def test_join_predicate(self):
        pattern = parse("PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 10")
        engine = OutOfOrderEngine(pattern, k=0)
        engine.run(
            [
                Event("A", 1, {"x": 1}),
                Event("A", 2, {"x": 2}),
                Event("B", 3, {"x": 2}),
            ]
        )
        assert len(engine.results) == 1
        assert engine.results[0].events[0]["x"] == 2

    def test_local_predicate_blocks_admission(self):
        pattern = parse("PATTERN SEQ(A a, B b) WHERE a.x > 5 WITHIN 10")
        engine = OutOfOrderEngine(pattern, k=0)
        engine.run([Event("A", 1, {"x": 3}), Event("B", 2)])
        assert engine.results == []
        assert engine.stacks.stacks[0].inserted == 0

    def test_missing_attribute_treated_as_nonmatch(self):
        pattern = parse("PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 10")
        engine = OutOfOrderEngine(pattern, k=0)
        # B lacks "x": predicate evaluation raises KeyError internally?
        # No: Attr lookup raises KeyError, which we let propagate as a
        # hard error because it is a schema bug, not a data condition.
        engine.feed(Event("A", 1, {"x": 1}))
        with pytest.raises(KeyError):
            engine.feed(Event("B", 2))


class TestStatsAndState:
    def test_event_counters(self, plain_seq2):
        engine = OutOfOrderEngine(plain_seq2, k=0)
        engine.run(make_events("A1 Z2 B3"))
        assert engine.stats.events_in == 3
        assert engine.stats.events_admitted == 2
        assert engine.stats.events_ignored == 1
        assert engine.stats.matches_emitted == 1

    def test_peak_state_tracked(self, plain_seq2):
        engine = OutOfOrderEngine(plain_seq2, k=0, purge=PurgePolicy.none())
        engine.run(make_events("A1 A2 A3 B4"))
        assert engine.stats.peak_state_size >= 4

    def test_state_size_reflects_stacks(self, plain_seq2):
        engine = OutOfOrderEngine(plain_seq2, k=0, purge=PurgePolicy.none())
        engine.feed_batch(make_events("A1 A2"))
        assert engine.state_size() == 2

    def test_result_set_keys(self, plain_seq2):
        engine = OutOfOrderEngine(plain_seq2, k=0)
        engine.run(make_events("A1 B2"))
        keys = engine.result_set()
        assert len(keys) == 1
        (key,) = keys
        assert key[0] == plain_seq2.name


class TestPunctuationHandling:
    def test_punctuation_advances_horizon_and_purges(self, plain_seq2):
        engine = OutOfOrderEngine(plain_seq2)  # k=None: no K promise
        engine.feed_batch(make_events("A1 A2"))
        assert engine.state_size() == 2
        engine.feed(Punctuation(50))
        assert engine.state_size() == 0  # window 10 long gone

    def test_punctuation_releases_negation_pending(self):
        pattern = seq("A a", "!B b", "C c", within=10)
        engine = OutOfOrderEngine(pattern)  # no K: only punctuation seals
        engine.feed_batch(make_events("A1 C5"))
        assert engine.results == []  # held: B could still arrive
        emitted = engine.feed(Punctuation(5))
        assert len(emitted) == 1

    def test_punctuation_counted(self, plain_seq2):
        engine = OutOfOrderEngine(plain_seq2, k=0)
        engine.feed(Punctuation(1))
        assert engine.stats.punctuations_in == 1


class TestOracleParity:
    @pytest.mark.parametrize("spec", [
        "A1 B2 A3 B4 A5 B6",
        "A1 A1 B2 B2",
        "A1 B11",
        "A1 B12",
        "A5 A6 A7 B8",
        "B1 A2 B3",
    ])
    def test_small_traces(self, plain_seq2, spec):
        engine_vs_oracle(plain_seq2, make_events(spec), k=0)

    def test_three_step_with_predicate(self, abc_pattern):
        events = make_events("A1:1 B2:9 C3:1 A4:2 B5:9 C6:2 C7:1")
        engine_vs_oracle(abc_pattern, events, k=0)
