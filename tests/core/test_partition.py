"""Partitioned evaluation (repro.core.partition)."""

import pytest

from repro import (
    ConfigurationError,
    Event,
    OfflineOracle,
    OutOfOrderEngine,
    PartitionedEngine,
    Punctuation,
    PurgePolicy,
    QueryError,
    detect_partition_key,
    parse,
    seq,
)
from repro.workloads import brute_force_query, exfiltration_query, shoplifting_query
from helpers import bounded_shuffle, make_events


@pytest.fixture
def keyed_pattern():
    return parse(
        "PATTERN SEQ(A a, B b, C c) WHERE a.x == b.x AND b.x == c.x WITHIN 30"
    )


@pytest.fixture
def keyed_trace():
    import random

    rng = random.Random(77)
    return [
        Event(rng.choice("ABCD"), ts, {"x": rng.randint(0, 15)})
        for ts in range(1, 1201)
    ]


class TestKeyDetection:
    def test_chain_equality_detected(self, keyed_pattern):
        assert detect_partition_key(keyed_pattern) == "x"

    def test_workload_queries_detected(self):
        assert detect_partition_key(shoplifting_query()) == "tag"
        assert detect_partition_key(brute_force_query()) == "src"
        assert detect_partition_key(exfiltration_query()) == "src"

    def test_single_step_trivially_partitionable(self):
        pattern = parse("PATTERN SEQ(A a, A a2) WHERE a.k == a2.k WITHIN 10")
        assert detect_partition_key(pattern) == "k"

    def test_disconnected_chain_rejected(self):
        pattern = parse(
            "PATTERN SEQ(A a, B b, C c) WHERE a.x == b.x WITHIN 30"
        )
        with pytest.raises(QueryError, match="no single equality attribute"):
            detect_partition_key(pattern)

    def test_no_predicates_rejected(self):
        with pytest.raises(QueryError):
            detect_partition_key(seq("A a", "B b", within=10))

    def test_mixed_attribute_names_rejected(self):
        pattern = parse(
            "PATTERN SEQ(A a, B b) WHERE a.x == b.y WITHIN 30"
        )
        with pytest.raises(QueryError):
            detect_partition_key(pattern)

    def test_unkeyed_negation_rejected(self):
        pattern = parse(
            "PATTERN SEQ(A a, !B b, C c) WHERE a.x == c.x WITHIN 30"
        )
        with pytest.raises(QueryError):
            detect_partition_key(pattern)

    def test_keyed_negation_accepted(self):
        pattern = parse(
            "PATTERN SEQ(A a, !B b, C c) WHERE a.x == c.x AND b.x == a.x WITHIN 30"
        )
        assert detect_partition_key(pattern) == "x"


class TestCorrectnessParity:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_oracle_under_disorder(self, keyed_pattern, keyed_trace, seed):
        arrival = bounded_shuffle(keyed_trace, k=20, seed=seed)
        truth = OfflineOracle(keyed_pattern).evaluate_set(keyed_trace)
        engine = PartitionedEngine(keyed_pattern, k=20)
        engine.run(arrival)
        assert engine.result_set() == truth

    def test_matches_flat_engine_exactly(self, keyed_pattern, keyed_trace):
        arrival = bounded_shuffle(keyed_trace, k=15, seed=9)
        flat = OutOfOrderEngine(keyed_pattern, k=15)
        flat.run(arrival)
        partitioned = PartitionedEngine(keyed_pattern, k=15)
        partitioned.run(arrival)
        assert partitioned.result_set() == flat.result_set()

    def test_negation_parity(self, keyed_trace):
        pattern = parse(
            "PATTERN SEQ(A a, !B b, C c) WHERE a.x == c.x AND b.x == a.x WITHIN 30"
        )
        arrival = bounded_shuffle(keyed_trace, k=15, seed=3)
        truth = OfflineOracle(pattern).evaluate_set(keyed_trace)
        engine = PartitionedEngine(pattern, k=15)
        engine.run(arrival)
        assert engine.result_set() == truth

    def test_explicit_key_override(self, keyed_pattern, keyed_trace):
        engine = PartitionedEngine(keyed_pattern, k=15, key="x")
        engine.run(keyed_trace)
        truth = OfflineOracle(keyed_pattern).evaluate_set(keyed_trace)
        assert engine.result_set() == truth

    def test_events_missing_key_ignored(self, keyed_pattern):
        engine = PartitionedEngine(keyed_pattern, k=10)
        engine.feed(Event("A", 1))  # no "x" attribute
        assert engine.stats.events_ignored == 1
        assert engine.partition_count() == 0


class TestPartitionMechanics:
    def test_partitions_created_per_key_value(self, keyed_pattern):
        engine = PartitionedEngine(keyed_pattern, k=10)
        engine.feed_batch(make_events("A1:1 A2:2 A3:3 A4:1"))
        assert engine.partition_count() == 3

    def test_punctuation_broadcast_bounds_idle_partition_state(self, keyed_pattern):
        engine = PartitionedEngine(keyed_pattern, k=5, punctuate_every=8)
        # Partition 1 gets two events then goes idle while partition 2 streams.
        engine.feed_batch(make_events("A1:1 B2:1"))
        for ts in range(3, 600):
            engine.feed(Event("A", ts, {"x": 2}))
        sub = engine._partitions[1]
        assert sub.state_size() == 0  # idle partition fully purged

    def test_negation_seals_via_broadcast(self):
        pattern = parse(
            "PATTERN SEQ(A a, !B b, C c) WHERE a.x == c.x AND b.x == a.x WITHIN 10"
        )
        engine = PartitionedEngine(pattern, k=5, punctuate_every=4)
        engine.feed_batch(make_events("A1:1 C5:1"))
        assert engine.results == []
        # Other-partition traffic advances the global clock; broadcasts seal.
        emitted = []
        for ts in range(6, 40):
            emitted.extend(engine.feed(Event("A", ts, {"x": 2})))
        assert len(emitted) == 1

    @pytest.mark.parametrize("negated", [False, True], ids=["seq", "neg"])
    def test_running_state_total_equals_resum_after_every_element(
        self, keyed_pattern, keyed_trace, negated
    ):
        """``state_size()`` is a running total, adjusted by the one
        sub-engine an event is routed to and re-summed at broadcasts,
        flush and restore — it must read what summing every sub-engine
        reads, at every step."""
        pattern = keyed_pattern
        if negated:
            pattern = parse(
                "PATTERN SEQ(A a, !B b, C c) WHERE a.x == c.x AND b.x == a.x WITHIN 30"
            )

        def resum(engine):
            return sum(sub.state_size() for sub in engine._partitions.values())

        arrival = bounded_shuffle(keyed_trace, k=15, seed=5)
        for at in range(150, len(arrival), 150):
            mark = min(e.ts for e in arrival[at:] if isinstance(e, Event)) - 1
            arrival.insert(at, Punctuation(mark))
        engine = PartitionedEngine(pattern, k=15, punctuate_every=7)
        peak = 0
        for index, element in enumerate(arrival):
            engine.feed(element)
            assert engine.state_size() == resum(engine), index
            peak = max(peak, engine.state_size())
            if index == len(arrival) // 2:
                restored = PartitionedEngine(pattern, k=15, punctuate_every=7)
                restored.restore(engine.snapshot())
                assert restored.state_size() == resum(restored) == engine.state_size()
                engine = restored
        assert peak > 0 and engine.stats.peak_state_size == peak
        engine.close()
        assert engine.state_size() == resum(engine)

    def test_external_punctuation_forwarded(self, keyed_pattern):
        engine = PartitionedEngine(keyed_pattern, k=None)
        engine.feed_batch(make_events("A1:1 A2:2"))
        engine.feed(Punctuation(500))
        assert engine.state_size() == 0

    def test_late_events_dropped_globally(self, keyed_pattern):
        engine = PartitionedEngine(keyed_pattern, k=5)
        engine.feed(Event("A", 100, {"x": 1}))
        engine.feed(Event("A", 2, {"x": 2}))  # late by global clock
        assert engine.stats.late_dropped == 1
        assert engine.partition_count() == 1  # no partition spawned for it

    def test_purge_policy_propagated_fresh_per_partition(self, keyed_pattern):
        engine = PartitionedEngine(keyed_pattern, k=5, purge=PurgePolicy.lazy(16))
        engine.feed_batch(make_events("A1:1 A2:2"))
        subs = list(engine._partitions.values())
        assert subs[0].purge_policy is not subs[1].purge_policy
        assert subs[0].purge_policy.interval == 16

    def test_punctuate_every_validated(self, keyed_pattern):
        with pytest.raises(ConfigurationError):
            PartitionedEngine(keyed_pattern, k=5, punctuate_every=0)

    def test_merged_substats(self, keyed_pattern, keyed_trace):
        engine = PartitionedEngine(keyed_pattern, k=10)
        engine.run(keyed_trace)
        merged = engine.merged_substats()
        assert merged.events_in == sum(
            sub.stats.events_in for sub in engine._partitions.values()
        )
        assert merged.matches_emitted == len(engine.results)


class TestPartitioningWins:
    def test_less_construction_work_at_high_cardinality(self, keyed_pattern, keyed_trace):
        arrival = bounded_shuffle(keyed_trace, k=15, seed=4)
        flat = OutOfOrderEngine(keyed_pattern, k=15)
        flat.run(arrival)
        partitioned = PartitionedEngine(keyed_pattern, k=15)
        partitioned.run(arrival)
        assert (
            partitioned.merged_substats().partial_combinations
            <= flat.stats.partial_combinations
        )


class TestSpeculativePartitions:
    @pytest.fixture
    def neg_keyed(self):
        return parse(
            "PATTERN SEQ(A a, !B b, C c) WHERE a.x == c.x AND b.x == a.x "
            "WITHIN 20"
        )

    def test_sealed_output_identical_to_pessimistic(self, keyed_pattern, keyed_trace):
        arrival = bounded_shuffle(keyed_trace, k=10, seed=5)
        plain = PartitionedEngine(keyed_pattern, k=10)
        spec = PartitionedEngine(keyed_pattern, k=10, speculative=True)
        for engine in (plain, spec):
            engine.feed_batch(arrival)
            engine.close()
        assert [m.key() for m in spec.results] == [m.key() for m in plain.results]

    def test_speculation_summary_and_net_convergence(self, neg_keyed, keyed_trace):
        arrival = bounded_shuffle(keyed_trace, k=10, seed=6)
        engine = PartitionedEngine(neg_keyed, k=10, speculative=True)
        engine.feed_batch(arrival)
        engine.close()
        summary = engine.speculation_summary()
        assert summary["open"] == 0
        assert summary["emitted"] >= len(engine.results)
        assert summary["retracted"] == len(engine.retraction_records())
        net = set()
        for sub in engine._partitions.values():
            net |= sub.speculation.net_keys()
        assert net == engine.result_set()

    def test_retraction_records_carry_partition_value(self, neg_keyed):
        engine = PartitionedEngine(neg_keyed, k=6, speculative=True)
        engine.feed(Event("A", 10, {"x": 7}))
        engine.feed(Event("C", 12, {"x": 7}))  # speculates in partition 7
        engine.feed(Event("B", 11, {"x": 7}))  # violates at seal
        engine.close()
        [(value, retraction)] = engine.retraction_records()
        assert value == 7
        assert retraction.cause == "negation-violated"

    def test_controller_cloned_per_partition(self, keyed_pattern, keyed_trace):
        from repro.streams import AdaptiveKController

        controller = AdaptiveKController(initial_k=12)
        engine = PartitionedEngine(keyed_pattern, controller=controller)
        engine.feed_batch(keyed_trace[:200])
        assert len(engine._partitions) > 1
        clones = [sub._controller for sub in engine._partitions.values()]
        assert all(c is not controller for c in clones)
        assert len(set(map(id, clones))) == len(clones)
        assert all(sub.clock.k == 12 for sub in engine._partitions.values())
        engine.close()
