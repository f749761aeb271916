"""Speculative emission with retraction (repro.core.speculate + engine mode).

The contract under test: speculation is a strictly additive side
channel.  The sealed ``results``/``emissions`` streams of a speculative
engine are byte-identical to a pessimistic run of the same stream, the
speculative stream is totally ordered by shared sequence ids, and
applying every retraction to it converges on exactly the sealed result
set (``SpeculationLog.net_keys() == engine.result_set()`` after close).
It is the library's one optimistic mode, so it also carries the
emit-early-compensate-later behaviours: zero latency, emission despite
an unsealed bracket, net output equal to the oracle.
"""

import random

import pytest

from repro import (
    ConfigurationError,
    Event,
    OfflineOracle,
    OutOfOrderEngine,
    Punctuation,
    SnapshotError,
    parse,
    seq,
)
from repro.core.speculate import (
    RETRACT_EMPTY_KLEENE,
    RETRACT_NEGATION,
    RETRACT_REVISED,
    RETRACTION_CAUSES,
    SpeculationLog,
    positive_key,
)
from repro.core.pattern import Match
from repro.metrics import summarize_arrival_latency
from helpers import bounded_shuffle, make_events

NEG = parse(
    "PATTERN SEQ(A a, !B b, C c) WHERE a.x == c.x AND b.x == a.x WITHIN 20"
)
KLEENE = parse("PATTERN SEQ(A a, B+ bs, C c) WITHIN 10")
PLAIN = parse("PATTERN SEQ(A a, B b) WITHIN 10")


def _match(pattern, *events, collections=None):
    return Match(pattern, events, collections=collections)


def neg_trace(n=300, seed=0, k=8):
    rng = random.Random(seed)
    events = [
        Event(rng.choice("ABCD"), ts, {"x": rng.randint(0, 2)})
        for ts in range(1, n + 1)
    ]
    return bounded_shuffle(events, k=k, seed=seed + 1)


class TestSpeculationLog:
    def test_speculate_then_confirming_seal(self):
        log = SpeculationLog()
        match = _match(PLAIN, Event("A", 1), Event("B", 2))
        record = log.speculate(match, arrival=5, clock=3)
        assert record.seq == 0 and record.epoch == 0
        assert log.open_count == 1
        outcome = log.seal(match, arrival=9, clock=12)
        assert outcome.record is record
        assert outcome.retraction is None and not outcome.fresh
        assert log.open_count == 0
        assert log.net_keys() == {match.key()}

    def test_seal_of_revised_binding_retracts_and_reemits(self):
        log = SpeculationLog()
        a, b1, b2, c = Event("A", 1), Event("B", 2), Event("B", 3), Event("C", 4)
        early = _match(KLEENE, a, c, collections={"bs": (b1,)})
        log.speculate(early, arrival=4, clock=4)
        sealed = _match(KLEENE, a, c, collections={"bs": (b1, b2)})
        assert positive_key(early) == positive_key(sealed)
        assert early.key() != sealed.key()
        outcome = log.seal(sealed, arrival=9, clock=9)
        assert outcome.fresh
        assert outcome.retraction is not None
        assert outcome.retraction.cause == RETRACT_REVISED
        assert outcome.retraction.ref_seq == 0
        # The stream stays totally ordered: emission, retraction, emission.
        assert [r.seq for r in log.emissions] == [0, 2]
        assert [r.seq for r in log.retractions] == [1]
        assert log.net_keys() == {sealed.key()}

    def test_seal_of_never_speculated_match_is_fresh(self):
        log = SpeculationLog()
        match = _match(PLAIN, Event("A", 1), Event("B", 2))
        outcome = log.seal(match, arrival=3, clock=3)
        assert outcome.fresh and outcome.retraction is None
        assert log.net_keys() == {match.key()}

    def test_retract_open_record(self):
        log = SpeculationLog()
        match = _match(PLAIN, Event("A", 1), Event("B", 2))
        log.speculate(match, arrival=2, clock=2)
        retraction = log.retract(match, RETRACT_NEGATION, arrival=7, clock=9)
        assert retraction is not None and retraction.cause == RETRACT_NEGATION
        assert retraction.ref_seq == 0 and retraction.seq == 1
        assert log.net_keys() == set()
        assert log.retraction_rate() == 1.0

    def test_retract_unknown_match_is_none(self):
        log = SpeculationLog()
        match = _match(PLAIN, Event("A", 1), Event("B", 2))
        assert log.retract(match, RETRACT_NEGATION, arrival=1, clock=1) is None
        assert log.retractions == []

    def test_take_hands_over_and_keeps_open_records(self):
        from repro.core import snapshot as snapshots

        log = SpeculationLog()
        sealed = _match(PLAIN, Event("A", 1), Event("B", 2))
        still_open = _match(PLAIN, Event("A", 3), Event("B", 4))
        log.speculate(sealed, arrival=2, clock=2)
        log.speculate(still_open, arrival=4, clock=4)
        log.retract(sealed, RETRACT_NEGATION, arrival=5, clock=6)
        emissions, retractions = log.take()
        assert [r.seq for r in emissions] == [0, 1]
        assert [r.ref_seq for r in retractions] == [0]
        assert log.emissions == [] == log.retractions
        assert log.take() == ([], [])
        # A taken record that is still open travels with the snapshot.
        state = log.snapshot_state(snapshots.encode_match)
        restored = SpeculationLog()
        restored.restore_state(
            state, lambda blob: snapshots.decode_match(PLAIN, blob)
        )
        assert restored.emissions == [] and restored.open_count == 1
        retraction = restored.retract(still_open, RETRACT_NEGATION, arrival=7, clock=9)
        assert (retraction.seq, retraction.ref_seq) == (3, 1)

    def test_restores_open_indices_of_an_untakeable_log(self):
        """Snapshots written before takes existed name open records by index."""
        from repro.core import snapshot as snapshots

        match = _match(PLAIN, Event("A", 1), Event("B", 2))
        state = {
            "epoch": 0, "enabled": True, "next_seq": 1,
            "emissions": [(0, 0, snapshots.encode_match(match), 2, 2)],
            "retractions": [], "open": [0],
        }
        log = SpeculationLog()
        log.restore_state(state, lambda blob: snapshots.decode_match(PLAIN, blob))
        assert log.open_count == 1
        assert log.retract(match, RETRACT_NEGATION, arrival=3, clock=3).ref_seq == 0

    def test_causes_are_distinct(self):
        assert len(set(RETRACTION_CAUSES)) == 3
        assert RETRACT_EMPTY_KLEENE in RETRACTION_CAUSES

    def test_snapshot_roundtrip_preserves_open_records(self):
        from repro.core import snapshot as snapshots

        log = SpeculationLog()
        sealed = _match(PLAIN, Event("A", 1), Event("B", 2))
        still_open = _match(PLAIN, Event("A", 3), Event("B", 4))
        log.speculate(sealed, arrival=2, clock=2)
        log.seal(sealed, arrival=3, clock=5)
        log.speculate(still_open, arrival=4, clock=5)
        log.epoch = 2
        log.enabled = False
        state = log.snapshot_state(snapshots.encode_match)

        restored = SpeculationLog()
        restored.restore_state(
            state, lambda blob: snapshots.decode_match(PLAIN, blob)
        )
        assert restored.epoch == 2 and restored.enabled is False
        assert restored.open_count == 1
        assert [r.seq for r in restored.emissions] == [r.seq for r in log.emissions]
        assert restored.net_keys() == log.net_keys()
        # The restored log keeps sequencing where the original left off.
        outcome = restored.seal(still_open, arrival=9, clock=9)
        assert not outcome.fresh
        assert restored._next_seq == log._next_seq


class TestSpeculativeEngine:
    def test_sealed_output_byte_identical_to_pessimistic(self):
        stream = neg_trace()
        plain = OutOfOrderEngine(NEG, k=8)
        spec = OutOfOrderEngine(NEG, k=8, speculative=True)
        for engine in (plain, spec):
            engine.feed_batch(stream)
            engine.close()
        assert [(m.key(), m.detected_at) for m in spec.results] == [
            (m.key(), m.detected_at) for m in plain.results
        ]
        assert [(r.emitted_seq, r.emitted_clock) for r in spec.emissions] == [
            (r.emitted_seq, r.emitted_clock) for r in plain.emissions
        ]
        # The two speculative counters are additive; every pessimistic
        # counter — including predicate/store work — matches exactly.
        spec_stats = spec.stats.as_dict()
        plain_stats = plain.stats.as_dict()
        assert spec_stats["speculative_emitted"] > 0
        for counter in ("speculative_emitted", "retractions_issued"):
            spec_stats[counter] = plain_stats[counter]
        assert spec_stats == plain_stats

    def test_speculative_stream_converges_to_sealed_results(self):
        engine = OutOfOrderEngine(NEG, k=8, speculative=True)
        engine.feed_batch(neg_trace(seed=5))
        engine.close()
        assert engine.speculation.open_count == 0
        assert engine.speculation.net_keys() == engine.result_set()

    def test_late_negative_triggers_retraction(self):
        engine = OutOfOrderEngine(NEG, k=6, speculative=True)
        a = Event("A", 10, {"x": 1})
        c = Event("C", 12, {"x": 1})
        b_late = Event("B", 11, {"x": 1})  # occurs inside the bracket
        engine.feed(a)
        engine.feed(c)  # match constructs, bracket unsealed -> speculates
        assert engine.stats.speculative_emitted == 1
        assert engine.speculation.open_count == 1
        engine.feed(b_late)  # arrives late but within K: violates at seal
        engine.close()
        assert engine.results == []
        assert engine.stats.retractions_issued == 1
        [retraction] = engine.speculation.retractions
        assert retraction.cause == RETRACT_NEGATION
        assert engine.speculation.net_keys() == set() == engine.result_set()

    def test_known_violated_bracket_suppresses_speculation(self):
        engine = OutOfOrderEngine(NEG, k=6, speculative=True)
        engine.feed(Event("A", 10, {"x": 1}))
        engine.feed(Event("B", 11, {"x": 1}))  # violation already stored
        engine.feed(Event("C", 12, {"x": 1}))
        engine.close()
        assert engine.stats.speculative_emitted == 0
        assert engine.stats.retractions_issued == 0
        assert engine.results == []

    def test_late_kleene_element_retracts_as_revised_binding(self):
        engine = OutOfOrderEngine(KLEENE, k=6, speculative=True)
        engine.feed(Event("A", 10))
        engine.feed(Event("B", 11))
        engine.feed(Event("C", 14))  # speculates with bs=(B@11,)
        assert engine.stats.speculative_emitted == 1
        engine.feed(Event("B", 12))  # late element revises the collection
        engine.close()
        [retraction] = engine.speculation.retractions
        assert retraction.cause == RETRACT_REVISED
        assert len(retraction.match.collections["bs"]) == 1
        assert len(engine.results) == 1
        assert len(engine.results[0].collections["bs"]) == 2
        assert engine.speculation.net_keys() == engine.result_set()

    def test_punctuation_advances_epoch(self):
        engine = OutOfOrderEngine(PLAIN, k=4, speculative=True)
        engine.feed(Event("A", 1))
        assert engine.speculation.epoch == 0
        engine.feed(Punctuation(1))
        assert engine.speculation.epoch == 1

    def test_snapshot_roundtrip_with_open_speculation(self):
        stream = neg_trace(seed=9)
        straight = OutOfOrderEngine(NEG, k=8, speculative=True)
        for element in stream:
            straight.feed(element)
        straight.close()

        interrupted = OutOfOrderEngine(NEG, k=8, speculative=True)
        cut = len(stream) // 2
        for element in stream[:cut]:
            interrupted.feed(element)
        blob = interrupted.snapshot()
        resumed = OutOfOrderEngine(NEG, k=8, speculative=True)
        resumed.restore(blob)
        for element in stream[cut:]:
            resumed.feed(element)
        resumed.close()

        assert [m.key() for m in resumed.results] == [
            m.key() for m in straight.results
        ]
        assert [
            (r.seq, r.epoch, r.match.key()) for r in resumed.speculation.emissions
        ] == [
            (r.seq, r.epoch, r.match.key()) for r in straight.speculation.emissions
        ]
        assert [
            (r.seq, r.ref_seq, r.cause) for r in resumed.speculation.retractions
        ] == [
            (r.seq, r.ref_seq, r.cause) for r in straight.speculation.retractions
        ]
        assert resumed.stats.as_dict() == straight.stats.as_dict()

    def test_snapshot_refuses_mode_mismatch(self):
        spec = OutOfOrderEngine(NEG, k=8, speculative=True)
        spec.feed(Event("A", 1, {"x": 0}))
        blob = spec.snapshot()
        plain = OutOfOrderEngine(NEG, k=8)
        with pytest.raises(SnapshotError):
            plain.restore(blob)

    def test_plain_engine_has_no_speculation_surface(self):
        engine = OutOfOrderEngine(NEG, k=8)
        assert engine.speculation is None
        engine.feed_batch(neg_trace(seed=2))
        engine.close()
        assert engine.stats.speculative_emitted == 0
        assert engine.stats.retractions_issued == 0


# -- the optimistic mode: emit early, compensate at the seal -------------------------


def _spec(pattern, k):
    return OutOfOrderEngine(pattern, k=k, speculative=True)


class TestPositivePatterns:
    def test_identical_to_conservative_without_negation(
        self, abc_pattern, random_trace
    ):
        arrival = bounded_shuffle(random_trace, k=15, seed=1)
        speculative = _spec(abc_pattern, 15)
        speculative.run(arrival)
        conservative = OutOfOrderEngine(abc_pattern, k=15)
        conservative.run(arrival)
        assert speculative.result_set() == conservative.result_set()
        assert speculative.speculation.net_keys() == conservative.result_set()
        assert speculative.speculation.retractions == []

    def test_zero_latency_for_positive_matches(self, plain_seq2, random_trace):
        arrival = bounded_shuffle(random_trace, k=10, seed=2)
        engine = _spec(plain_seq2, 10)
        engine.run(arrival)
        summary = summarize_arrival_latency(engine.speculation.emissions, arrival)
        assert summary.count == len(engine.results) > 0
        assert summary.max == 0.0


class TestOptimisticNegation:
    PATTERN = seq("A a", "!B b", "C c", within=10)

    def test_emits_immediately_despite_unsealed_bracket(self):
        engine = _spec(self.PATTERN, 100)
        engine.feed(Event("A", 1))
        assert engine.feed(Event("C", 5)) == []  # the sealed stream holds it
        [record] = engine.speculation.emissions
        assert record.emitted_seq == engine.arrival_index == 2

    def test_known_negative_blocks_immediately(self):
        engine = _spec(self.PATTERN, 100)
        engine.feed_batch(make_events("A1 B3"))
        engine.feed(Event("C", 5))
        assert engine.speculation.emissions == []
        engine.close()
        assert engine.stats.matches_cancelled == 1
        assert engine.speculation.retractions == []

    def test_unrelated_negative_does_not_retract(self):
        engine = _spec(self.PATTERN, 100)
        engine.feed_batch(make_events("A1 C5"))
        engine.feed(Event("B", 7))  # outside bracket (1, 5)
        engine.close()
        assert engine.speculation.retractions == []
        assert engine.speculation.net_keys() == engine.result_set() != set()

    def test_sealed_match_cannot_be_retracted(self):
        engine = _spec(self.PATTERN, 2)
        engine.feed_batch(make_events("A1 C5"))
        engine.feed(Event("Z", 50))  # seals the bracket (k=2)
        assert len(engine.results) == 1
        # A very late B is dropped by the K policy; the seal is final.
        engine.feed(Event("B", 3))
        engine.close()
        assert engine.stats.late_dropped == 1
        assert engine.speculation.retractions == []
        assert len(engine.speculation.net_keys()) == 1

    def test_double_retraction_impossible(self):
        engine = _spec(self.PATTERN, 100)
        engine.feed_batch(make_events("A1 C5 B3 B4"))
        engine.close()
        [retraction] = engine.speculation.retractions
        assert retraction.cause == RETRACT_NEGATION
        assert engine.speculation.net_keys() == set() == engine.result_set()

    def test_take_speculation_hands_over(self):
        engine = _spec(self.PATTERN, 100)
        engine.feed_batch(make_events("A1 C5 B3"))
        emissions, retractions = engine.take_speculation()
        assert len(emissions) == 1 and retractions == []
        assert engine.take_speculation() == ([], [])
        engine.close()  # the open record is retracted at its seal
        __, [retraction] = engine.take_speculation()
        assert retraction.ref_seq == emissions[0].seq
        assert engine.stats.speculative_emitted == 1
        assert engine.stats.retractions_issued == 1
        assert OutOfOrderEngine(self.PATTERN).take_speculation() == ([], [])


class TestNetResultParity:
    @pytest.mark.parametrize("seed", range(6))
    def test_net_results_match_oracle(self, neg_pattern, random_trace, seed):
        arrival = bounded_shuffle(random_trace, k=12, seed=seed)
        truth = OfflineOracle(neg_pattern).evaluate_set(random_trace)
        engine = _spec(neg_pattern, 12)
        engine.run(arrival)
        assert engine.speculation.net_keys() == truth == engine.result_set()

    def test_net_results_leading_trailing_negation(self, random_trace):
        for pattern in (
            seq("!B b", "A a", "C c", within=15),
            seq("A a", "C c", "!B b", within=15),
        ):
            arrival = bounded_shuffle(random_trace, k=10, seed=7)
            truth = OfflineOracle(pattern).evaluate_set(random_trace)
            engine = _spec(pattern, 10)
            engine.run(arrival)
            assert engine.speculation.net_keys() == truth

    def test_retractions_counted_in_stats(self, neg_pattern, random_trace):
        arrival = bounded_shuffle(random_trace, k=12, seed=3)
        engine = _spec(neg_pattern, 12)
        engine.run(arrival)
        log = engine.speculation
        assert engine.stats.retractions_issued == len(log.retractions)
        assert engine.stats.speculative_emitted == len(log.emissions)


class TestLatencyAdvantage:
    def test_speculative_beats_conservative_latency_on_negation(self, random_trace):
        pattern = seq("A a", "!B b", "C c", within=15)
        arrival = bounded_shuffle(random_trace, k=10, seed=4)

        speculative = _spec(pattern, 10)
        speculative.run(arrival)
        conservative = OutOfOrderEngine(pattern, k=10)
        conservative.run(arrival)

        fast = summarize_arrival_latency(speculative.speculation.emissions, arrival)
        slow = summarize_arrival_latency(conservative.emissions, arrival)
        assert fast.mean <= slow.mean
        assert fast.mean == 0.0
