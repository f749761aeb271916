"""Engine checkpointing: snapshot() / restore() across all families.

The contract: a snapshot captures an engine's *full deterministic
state*, so restoring it into a freshly constructed engine (same
pattern, same configuration) and continuing the stream is observably
identical to never having stopped — same matches, same emission order,
same counters, same residual state.  Configuration is verified, never
restored: a blob only loads into an engine built the same way.
"""

import pickle
import random

import pytest

from repro import (
    Attr,
    Eq,
    Event,
    InOrderEngine,
    OutOfOrderEngine,
    ParallelPartitionedEngine,
    PartitionedEngine,
    Punctuation,
    PurgePolicy,
    ReorderingEngine,
    SnapshotError,
    seq,
)
from repro.core.errors import EngineStateError
from helpers import bounded_shuffle

K = 8

PATTERN = seq(
    "A a",
    "!B b",
    "C c",
    within=20,
    where=[Eq(Attr("a", "x"), Attr("c", "x")), Eq(Attr("b", "x"), Attr("a", "x"))],
    name="snap",
)

ENGINE_KINDS = ["ooo", "inorder", "speculative", "reorder", "partitioned", "parallel"]

#: Class name in the header of checkpoints written by the deleted engine.
REMOVED_ENGINE = "Pipelined" + PartitionedEngine.__name__


def build(kind, pattern=PATTERN, **overrides):
    if kind == "ooo":
        return OutOfOrderEngine(pattern, k=overrides.get("k", K))
    if kind == "inorder":
        return InOrderEngine(pattern)
    if kind == "speculative":
        return OutOfOrderEngine(pattern, k=overrides.get("k", K), speculative=True)
    if kind == "reorder":
        return ReorderingEngine(pattern, k=overrides.get("k", K))
    if kind == "partitioned":
        return PartitionedEngine(pattern, k=overrides.get("k", K), key="x")
    if kind == "parallel":
        return ParallelPartitionedEngine(
            pattern, k=overrides.get("k", K), key="x", workers=2
        )
    raise AssertionError(kind)


def trace(n=260, seed=0, with_punctuation=True):
    rng = random.Random(seed)
    events = [
        Event(rng.choice("ABC"), ts, {"x": rng.randint(0, 2)})
        for ts in range(1, n + 1)
    ]
    arrival = bounded_shuffle(events, k=K, seed=seed + 1)
    if with_punctuation:
        arrival.insert(len(arrival) // 3, Punctuation(events[len(events) // 4].ts))
    return arrival


def stream_for(kind, with_punctuation=True):
    arrival = trace(with_punctuation=with_punctuation)
    if kind == "inorder":
        return sorted(
            [e for e in arrival if isinstance(e, Event)], key=lambda e: e.ts
        )
    return arrival


@pytest.mark.parametrize("kind", ENGINE_KINDS)
class TestRoundTrip:
    def test_mid_stream_restore_continues_identically(self, kind):
        stream = stream_for(kind)
        straight = build(kind)
        for element in stream:
            straight.feed(element)
        final = straight.close()

        interrupted = build(kind)
        cut = len(stream) // 2
        for element in stream[:cut]:
            interrupted.feed(element)
        blob = interrupted.snapshot()
        resumed = build(kind)
        resumed.restore(blob)
        for element in stream[cut:]:
            resumed.feed(element)
        resumed.close()

        assert [m.key() for m in resumed.results] == [
            m.key() for m in straight.results
        ]
        assert resumed.stats.as_dict() == straight.stats.as_dict()
        assert [(r.emitted_seq, r.emitted_clock) for r in resumed.emissions] == [
            (r.emitted_seq, r.emitted_clock) for r in straight.emissions
        ]
        assert final is not None  # close() on the straight run succeeded

    def test_snapshot_is_nondestructive(self, kind):
        stream = stream_for(kind)
        snapped = build(kind)
        plain = build(kind)
        for element in stream:
            snapped.feed(element)
            snapped.snapshot()  # every element: snapshotting never perturbs
            plain.feed(element)
        snapped.close()
        plain.close()
        assert [m.key() for m in snapped.results] == [m.key() for m in plain.results]
        assert snapped.stats.as_dict() == plain.stats.as_dict()

    def test_restored_closed_engine_stays_closed(self, kind):
        stream = stream_for(kind)
        engine = build(kind)
        for element in stream:
            engine.feed(element)
        engine.close()
        resumed = build(kind)
        resumed.restore(engine.snapshot())
        with pytest.raises(EngineStateError):
            resumed.feed(Event("A", 10_000, {"x": 0}))


class TestBlobSafety:
    def test_garbage_blob_rejected(self):
        engine = build("ooo")
        with pytest.raises(SnapshotError):
            engine.restore(b"not a snapshot")

    def test_config_mismatch_rejected(self):
        donor = build("ooo")
        donor.feed(Event("A", 5, {"x": 0}))
        blob = donor.snapshot()
        different_k = build("ooo", k=K + 1)
        with pytest.raises(SnapshotError):
            different_k.restore(blob)

    def test_index_flag_mismatch_rejected(self):
        # The equality-index ablation changes the construction plan, so
        # an indexed blob must not load into a range-only engine (or
        # vice versa) — config is verified, never restored.
        donor = OutOfOrderEngine(PATTERN, k=K, index=True)
        donor.feed(Event("A", 5, {"x": 0}))
        blob = donor.snapshot()
        range_only = OutOfOrderEngine(PATTERN, k=K, index=False)
        with pytest.raises(SnapshotError):
            range_only.restore(blob)

    def test_index_flag_match_restores(self):
        donor = OutOfOrderEngine(PATTERN, k=K, index=False)
        donor.feed(Event("A", 5, {"x": 0}))
        resumed = OutOfOrderEngine(PATTERN, k=K, index=False)
        resumed.restore(donor.snapshot())
        assert resumed.stats.as_dict() == donor.stats.as_dict()

    def test_partitioned_index_flag_mismatch_rejected(self):
        donor = PartitionedEngine(PATTERN, k=K, key="x", index=True)
        donor.feed(Event("A", 5, {"x": 0}))
        blob = donor.snapshot()
        range_only = PartitionedEngine(PATTERN, k=K, key="x", index=False)
        with pytest.raises(SnapshotError):
            range_only.restore(blob)

    def test_pattern_mismatch_rejected(self):
        donor = build("ooo")
        blob = donor.snapshot()
        other = OutOfOrderEngine(seq("A a", "B b", within=20, name="other"), k=K)
        with pytest.raises(SnapshotError):
            other.restore(blob)

    def test_engine_class_mismatch_rejected(self):
        donor = build("ooo")
        blob = donor.snapshot()
        with pytest.raises(SnapshotError):
            build("reorder").restore(blob)

    def test_checkpoint_of_the_removed_engine_refused_by_name(self):
        """A blob written by the deleted pipelined engine must not load
        into the engine it sharded over; the refusal names both."""
        engine = build("partitioned")
        payload = pickle.loads(engine.snapshot())
        payload["engine"] = REMOVED_ENGINE
        with pytest.raises(SnapshotError) as refusal:
            engine.restore(pickle.dumps(payload))
        assert f"{REMOVED_ENGINE!r}" in str(refusal.value)
        assert "into PartitionedEngine" in str(refusal.value)

    def test_parent_reorder_checkpoint_refused_by_config(self):
        """A reorder blob from before the spill tier was deleted carries
        its two knobs in the config header; the config check refuses it."""
        engine = build("reorder")
        engine.feed(Event("A", 5, {"x": 0}))
        payload = pickle.loads(engine.snapshot())
        payload["config"].update({"memory_limit": None, "max_spilled": None})
        payload["state"]["spill"] = None
        with pytest.raises(SnapshotError, match="configuration does not match"):
            build("reorder").restore(pickle.dumps(payload))

    def test_format_version_checked(self):
        engine = build("ooo")
        payload = pickle.loads(engine.snapshot())
        payload["format"] = 999
        with pytest.raises(SnapshotError):
            engine.restore(pickle.dumps(payload))

    def test_pattern_never_pickled(self):
        # FnPredicate closures make Pattern unpicklable in general; the
        # snapshot must therefore carry a fingerprint, not the object.
        engine = OutOfOrderEngine(
            seq(
                "A a",
                "B b",
                within=20,
                where=[Eq(Attr("a", "x"), Attr("b", "x"))],
                name="fp",
            ),
            k=K,
        )
        engine.feed(Event("A", 1, {"x": 0}))
        payload = pickle.loads(engine.snapshot())
        assert payload["config"]["pattern"]["name"] == "fp"
        assert "within" in payload["config"]["pattern"]


class TestFamilySpecificState:
    def test_speculation_state_survives_a_taking_receiver(self):
        stream = stream_for("speculative")
        straight = build("speculative")
        straight.run(stream)

        cut = len(stream) // 2
        first = build("speculative")
        for element in stream[:cut]:
            first.feed(element)
        while not first.speculation.open_count:  # cut where a record is open
            first.feed(stream[cut])
            cut += 1
        emissions, retractions = first.take_speculation()
        assert first.speculation.open_count  # open records ride the snapshot
        second = build("speculative")
        second.restore(first.snapshot())
        for element in stream[cut:]:
            second.feed(element)
        second.close()
        later_emissions, later_retractions = second.take_speculation()

        log = straight.speculation
        assert log.retractions
        assert [(r.seq, r.match.key()) for r in emissions + later_emissions] == [
            (r.seq, r.match.key()) for r in log.emissions
        ]
        withdrawn = retractions + later_retractions
        assert [(r.seq, r.ref_seq, r.cause) for r in withdrawn] == [
            (r.seq, r.ref_seq, r.cause) for r in log.retractions
        ]
        assert second.result_set() == straight.result_set()

    def test_reorder_buffer_contents_survive(self):
        engine = ReorderingEngine(PATTERN, k=50)
        for ts in (100, 90, 110, 95):
            engine.feed(Event("A", ts, {"x": 0}))
        assert engine.buffer_size() == 4  # nothing released yet
        clone = ReorderingEngine(PATTERN, k=50)
        clone.restore(engine.snapshot())
        assert clone.buffer_size() == 4
        assert clone.state_size() == engine.state_size()

    def test_partitioned_preserves_partition_order(self):
        engine = PartitionedEngine(PATTERN, k=K, key="x")
        for ts, x in [(1, 2), (2, 0), (3, 1)]:
            engine.feed(Event("A", ts, {"x": x}))
        clone = PartitionedEngine(PATTERN, k=K, key="x")
        clone.restore(engine.snapshot())
        assert list(clone._partitions) == list(engine._partitions)

    def test_punctuated_horizon_survives(self):
        """The punctuation floor is clock state the K bound cannot
        re-derive: an event under it is late after a restore too."""
        engine = OutOfOrderEngine(PATTERN, k=K)
        engine.feed(Event("A", 50, {"x": 0}))
        engine.feed(Punctuation(100))
        clone = OutOfOrderEngine(PATTERN, k=K)
        clone.restore(engine.snapshot())
        assert clone.clock.horizon() == engine.clock.horizon() == 100
        # 100 - K - 1 < 95 <= 100: late by the punctuation alone.
        for target in (engine, clone):
            target.feed(Event("A", 95, {"x": 0}))
        assert clone.stats.late_dropped == engine.stats.late_dropped == 1

    def test_observation_count_survives(self):
        engine = OutOfOrderEngine(PATTERN, k=K)
        stream = stream_for("ooo")
        for element in stream:
            engine.feed(element)
        clone = OutOfOrderEngine(PATTERN, k=K)
        clone.restore(engine.snapshot())
        events = sum(isinstance(element, Event) for element in stream)
        assert clone.clock.observations == engine.clock.observations == events

    def test_purge_schedule_resumes_mid_interval(self):
        """Not just equal snapshots: the restored schedule's next purge
        lands on the element the original's would."""

        def elements_until_due(policy):
            count = 1
            while not policy.due():
                count += 1
            return count

        engine = OutOfOrderEngine(PATTERN, k=K, purge=PurgePolicy.lazy(7))
        for ts in range(1, 11):
            engine.feed(Event("A", ts, {"x": 0}))
        clone = OutOfOrderEngine(PATTERN, k=K, purge=PurgePolicy.lazy(7))
        clone.restore(engine.snapshot())
        remaining = elements_until_due(engine.purge_policy)
        assert remaining < 7  # the snapshot was taken mid-interval
        assert elements_until_due(clone.purge_policy) == remaining

    def test_purge_schedule_survives(self):
        engine = OutOfOrderEngine(PATTERN, k=K, purge=PurgePolicy.lazy(7))
        for element in stream_for("ooo"):
            engine.feed(element)
        clone = OutOfOrderEngine(PATTERN, k=K, purge=PurgePolicy.lazy(7))
        clone.restore(engine.snapshot())
        assert (
            clone.purge_policy.snapshot_state()
            == engine.purge_policy.snapshot_state()
        )
