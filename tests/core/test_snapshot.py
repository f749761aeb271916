"""Engine checkpointing: snapshot() / restore() across all families.

The contract: a snapshot captures an engine's *full deterministic
state*, so restoring it into a freshly constructed engine (same
pattern, same configuration) and continuing the stream is observably
identical to never having stopped — same matches, same emission order,
same counters, same residual state.  Configuration is verified, never
restored: a blob only loads into an engine built the same way.

:class:`TestRoundTrip` is the completeness check for every hand-written
snapshot/restore pair: the restored twin's whole object graph must equal
the original's (:func:`state_differences`), so an attribute a pair
forgets fails here whatever its name or however it is written.
"""

import enum
import functools
import pickle
import random
import types
from collections import deque

import pytest

from repro import (
    Attr,
    Eq,
    Event,
    InOrderEngine,
    OutOfOrderEngine,
    PartitionedEngine,
    Punctuation,
    PurgePolicy,
    ReorderingEngine,
    SnapshotError,
    seq,
)
from repro.core.errors import EngineStateError
from repro.core.shedding import ShedPolicy
from repro.obs import MetricsRegistry
from repro.streams import AdaptiveKController
from repro.streams.punctuation import SourceWatermarks
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

#: Every engine family and every configuration that adds state of its
#: own; "ooo" runs the default eager purge.
ENGINE_KINDS = [
    "ooo",
    "inorder",
    "speculative",
    "reorder",
    "partitioned",
    "controller",
    "shed-oldest",
    "shed-by-type",
    "no-index",
    "purge-none",
    "purge-lazy",
    "metrics",
]

#: Class name in the header of checkpoints written by the deleted engine.
REMOVED_ENGINE = "Pipelined" + PartitionedEngine.__name__


def build(kind, pattern=PATTERN, **overrides):
    k = overrides.get("k", K)
    if kind == "ooo":
        return OutOfOrderEngine(pattern, k=k)
    if kind == "inorder":
        return InOrderEngine(pattern)
    if kind == "speculative":
        return OutOfOrderEngine(pattern, k=k, speculative=True)
    if kind == "reorder":
        return ReorderingEngine(pattern, k=k)
    if kind == "partitioned":
        return PartitionedEngine(pattern, k=k, key="x")
    if kind == "controller":
        # Starts below the trace's disorder, so the punctuation re-freezes K.
        controller = AdaptiveKController(initial_k=2, min_epoch_events=16)
        return OutOfOrderEngine(pattern, speculative=True, controller=controller)
    if kind == "shed-oldest":
        return OutOfOrderEngine(pattern, k=k, shed=ShedPolicy.drop_oldest(12))
    if kind == "shed-by-type":
        return OutOfOrderEngine(pattern, k=k, shed=ShedPolicy.drop_by_type(12, ("B",)))
    if kind == "no-index":
        return OutOfOrderEngine(pattern, k=k, index=False)
    if kind == "purge-none":
        return OutOfOrderEngine(pattern, k=k, purge=PurgePolicy.none())
    if kind == "purge-lazy":
        return OutOfOrderEngine(pattern, k=k, purge=PurgePolicy.lazy(7))
    if kind == "metrics":
        engine = OutOfOrderEngine(pattern, k=k)
        engine.enable_observability(metrics=MetricsRegistry())
        return engine
    raise AssertionError(kind)


#: Attributes whose dicts the twin walk compares without regard to key
#: order, each with the reason the order may differ.
UNORDERED = {
    "_postings": "restore re-indexes the instances in (ts, eid) order, so "
    "a posting dict's value keys are inserted in another order; lookups "
    "probe by key and never iterate them",
}

_SCALARS = (type(None), bool, int, float, complex, str, bytes, enum.Enum, type)
_CALLABLES = (
    types.FunctionType,
    types.MethodType,
    types.BuiltinFunctionType,
    types.MethodWrapperType,
    functools.partial,
)
_UNSET = object()


def _fields(obj):
    names = list(getattr(obj, "__dict__", ()))
    for cls in type(obj).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        names.extend([slots] if isinstance(slots, str) else slots)
    return [n for n in dict.fromkeys(names) if n not in ("__dict__", "__weakref__")]


def state_differences(original, twin, path="engine"):
    """Every path where *twin*'s object graph differs in value from *original*'s.

    Objects are walked through ``__dict__`` and ``__slots__``; sequences
    element by element; dicts in key order, except under an
    :data:`UNORDERED` attribute.  Equality is by value, never identity:
    a restored speculation log holds one ``Match`` copy per record where
    the live log shares a single object.  Callables compare by
    qualified name.
    """
    diffs = []
    compared = set()

    def walk(a, b, path, ordered):
        if type(a) is not type(b):
            diffs.append(f"{path}: {type(a).__name__} != {type(b).__name__}")
        elif isinstance(a, _SCALARS) or isinstance(a, (set, frozenset)):
            if a != b:
                diffs.append(f"{path}: {a!r} != {b!r}")
        elif isinstance(a, _CALLABLES):
            if a.__qualname__ != b.__qualname__:
                diffs.append(f"{path}: {a.__qualname__} != {b.__qualname__}")
        elif (id(a), id(b)) not in compared:  # a shared object or a cycle: once
            compared.add((id(a), id(b)))
            if isinstance(a, dict):
                if (list(a) if ordered else set(a)) != (list(b) if ordered else set(b)):
                    diffs.append(f"{path}: keys {list(a)!r} != {list(b)!r}")
                    return
                for key in a:
                    walk(a[key], b[key], f"{path}[{key!r}]", ordered)
            elif isinstance(a, (list, tuple, deque)):
                if len(a) != len(b):
                    diffs.append(f"{path}: length {len(a)} != {len(b)}")
                    return
                for index, (x, y) in enumerate(zip(a, b)):
                    walk(x, y, f"{path}[{index}]", ordered)
            else:
                for name in _fields(a):
                    walk(
                        getattr(a, name, _UNSET),
                        getattr(b, name, _UNSET),
                        f"{path}.{name}",
                        name not in UNORDERED,
                    )

    walk(original, twin, path, True)
    return diffs


def assert_same_snapshot(blob, expected):
    """*blob* decodes to exactly *expected*'s state.

    Compared decoded, not as bytes: pickle also records which equal
    strings are one object, and an attribute name unpickled by a
    restore is a different ``str`` object from the interpreter's, so
    equal states can differ in their memo layout.
    """
    assert state_differences(pickle.loads(expected), pickle.loads(blob), "snapshot") == []


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
        assert_same_snapshot(resumed.snapshot(), straight.snapshot())
        assert final is not None  # close() on the straight run succeeded

    def test_restored_twin_equals_original(self, kind):
        """At a third, two thirds and the closed end of the trace, a twin
        restored from the snapshot equals the original field by field,
        and snapshots to the same state."""
        stream = stream_for(kind)
        original = build(kind)
        fed = 0
        for cut in (len(stream) // 3, 2 * len(stream) // 3, None):
            if cut is None:
                original.close()
            else:
                for element in stream[fed:cut]:
                    original.feed(element)
                fed = cut
            blob = original.snapshot()
            twin = build(kind)
            twin.restore(blob)
            assert state_differences(original, twin) == []
            assert_same_snapshot(twin.snapshot(), blob)

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


def test_source_watermarks_twin_equals_original():
    """The gateway's per-source marks are checkpointed on their own, not
    inside an engine, so the component is walked directly."""
    steps = [
        ("observe", "s2", 30),
        ("observe", "s1", 10),
        ("advance",),
        ("fence", "s2"),
        ("assert_watermark", "s3", 5),
        ("fence", "s1"),
        ("advance",),
        ("unfence", "s2", 12),
        ("observe", "s3", 40),
        ("advance",),
    ]
    original = SourceWatermarks(slack=1)
    twins = []
    for op, *args in steps:
        twin = SourceWatermarks(slack=1)
        twin.restore_state(original.snapshot_state())
        assert state_differences(original, twin, "marks") == []
        assert twin.snapshot_state() == original.snapshot_state()
        twins.append(twin)
        expected = getattr(original, op)(*args)
        for twin in twins:  # every twin carries on identically
            assert getattr(twin, op)(*args) == expected
    for twin in twins:
        assert state_differences(original, twin, "marks") == []


class _RunCounter(OutOfOrderEngine):
    """Counts step-loop calls and never snapshots the count."""

    def __init__(self, pattern, **config):
        super().__init__(pattern, **config)
        self.runs = 0

    def _run(self, elements):
        self.runs += 1
        return super()._run(elements)


class _DroppedField(OutOfOrderEngine):
    """Leaves one counter out of the snapshot; restore zeroes it."""

    def _snapshot_state(self):
        state = super()._snapshot_state()
        del state["stats"]["events_in"]
        return state


class _ResetOnRestore(PartitionedEngine):
    """Restores one field to a constant instead of from the state."""

    def _restore_state(self, state):
        super()._restore_state(state)
        self._since_punctuation = 0


@pytest.mark.parametrize(
    "leaky, config",
    [
        (_RunCounter, {"k": K}),
        (_DroppedField, {"k": K}),
        (_ResetOnRestore, {"k": K, "key": "x"}),
    ],
    ids=["counter-never-snapshotted", "field-dropped-from-snapshot", "field-reset-on-restore"],
)
def test_twin_check_catches_an_incomplete_pair(leaky, config):
    stream = stream_for("ooo")
    original = leaky(PATTERN, **config)
    for element in stream[: len(stream) // 3]:
        original.feed(element)
    twin = leaky(PATTERN, **config)
    twin.restore(original.snapshot())
    assert state_differences(original, twin) != []


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
        # The snapshot carries the pattern's fingerprint, not the object.
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
        assert clone.clock.snapshot_state()["observations"] == events
        assert engine.clock.snapshot_state()["observations"] == events

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
