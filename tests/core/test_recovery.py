"""ResilientRunner: WAL + checkpoint + exactly-once replay (unit tests).

The crash-anywhere property suite lives in
``tests/property/test_property_recovery.py``; these tests pin the
runner's mechanics — log formats, torn-write repair, suppression
accounting, and the error surface when logs disagree.
"""

import json
import random

import pytest

from repro import (
    Attr,
    ConfigurationError,
    CrashError,
    Eq,
    Event,
    FaultInjector,
    OutOfOrderEngine,
    Punctuation,
    RecoveryError,
    ResilientRunner,
    StreamError,
    seq,
)
from repro.core import recovery
from repro.core.recovery import (
    CHECKPOINT_NAME,
    DELIVERED_NAME,
    WAL_NAME,
    clear_state,
    decode_element,
    encode_element,
)
from repro.faultinject import forge_event
from helpers import bounded_shuffle

K = 8

PATTERN = seq(
    "A a",
    "B b",
    within=12,
    where=[Eq(Attr("a", "x"), Attr("b", "x"))],
    name="rec",
)


def make_engine():
    return OutOfOrderEngine(PATTERN, k=K)


def trace(n=200, seed=0):
    rng = random.Random(seed)
    events = [
        Event(rng.choice("AB"), ts, {"x": rng.randint(0, 2)})
        for ts in range(1, n + 1)
    ]
    return bounded_shuffle(events, k=K, seed=seed + 1)


class TestElementCodec:
    def test_event_round_trip(self):
        event = Event("A", 7, {"x": 1, "y": "z"}, eid=42)
        clone = decode_element(encode_element(event))
        assert (clone.etype, clone.ts, clone.eid, clone.attrs) == (
            "A",
            7,
            42,
            {"x": 1, "y": "z"},
        )

    def test_punctuation_round_trip(self):
        clone = decode_element(encode_element(Punctuation(9)))
        assert isinstance(clone, Punctuation) and clone.ts == 9

    def test_unknown_kind_rejected(self):
        with pytest.raises(RecoveryError):
            decode_element({"kind": "mystery"})

    def test_unloggable_element_rejected(self):
        with pytest.raises(ConfigurationError):
            encode_element("not an element")


class TestPlainOperation:
    def test_run_matches_bare_engine(self, tmp_path):
        stream = trace()
        bare = make_engine()
        bare.run(stream)
        runner = ResilientRunner(make_engine(), tmp_path, checkpoint_every=25)
        delivered = runner.run(stream)
        assert [m.key() for m in delivered] == [m.key() for m in bare.results]
        assert runner.checkpoints_written >= len(stream) // 25
        assert not runner.recovered

    def test_logs_written(self, tmp_path):
        stream = trace(50)
        ResilientRunner(make_engine(), tmp_path, checkpoint_every=10).run(stream)
        assert (tmp_path / WAL_NAME).exists()
        assert (tmp_path / CHECKPOINT_NAME).exists()
        wal_lines = (tmp_path / WAL_NAME).read_text().splitlines()
        # every element + the close sentinel
        assert len(wal_lines) == len(stream) + 1
        assert json.loads(wal_lines[-1]) == {"kind": "close"}

    def test_delivery_log_is_sequenced(self, tmp_path):
        runner = ResilientRunner(make_engine(), tmp_path, checkpoint_every=10)
        runner.run(trace())
        records = [
            json.loads(line)
            for line in (tmp_path / DELIVERED_NAME).read_text().splitlines()
        ]
        assert [r["seq"] for r in records] == list(range(len(records)))
        assert all(r["start_ts"] <= r["end_ts"] for r in records)

    def test_interval_validated(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ResilientRunner(make_engine(), tmp_path, checkpoint_every=0)

    def test_close_idempotent(self, tmp_path):
        runner = ResilientRunner(make_engine(), tmp_path, checkpoint_every=10)
        runner.run(trace(30))
        assert runner.close() == []

    def test_clear_state(self, tmp_path):
        ResilientRunner(make_engine(), tmp_path, checkpoint_every=10).run(trace(30))
        clear_state(tmp_path)
        assert not any(
            (tmp_path / name).exists()
            for name in (WAL_NAME, CHECKPOINT_NAME, DELIVERED_NAME)
        )
        fresh = ResilientRunner(make_engine(), tmp_path, checkpoint_every=10)
        assert not fresh.recovered


class TestCrashRecovery:
    def _crash_and_recover(self, tmp_path, stream, crash_at, interval):
        fault = FaultInjector(crash_at=[crash_at])
        first = ResilientRunner(
            make_engine(), tmp_path, checkpoint_every=interval, fault=fault
        )
        with pytest.raises(CrashError):
            first.run(stream)
        second = ResilientRunner(make_engine(), tmp_path, checkpoint_every=interval)
        second.run(stream)
        return second

    def test_delivered_log_byte_identical_to_uninterrupted(self, tmp_path):
        stream = trace()
        plain_dir = tmp_path / "plain"
        crash_dir = tmp_path / "crash"
        ResilientRunner(make_engine(), plain_dir, checkpoint_every=25).run(stream)
        recovered = self._crash_and_recover(
            crash_dir, stream, crash_at=130, interval=25
        )
        assert (crash_dir / DELIVERED_NAME).read_bytes() == (
            plain_dir / DELIVERED_NAME
        ).read_bytes()
        assert recovered.recovered
        # Last checkpoint at seq 125; the crashed element (logged but
        # never processed) is part of the replayed suffix: 126..131.
        assert recovered.replayed_elements == 131 - 125

    def test_crash_before_first_checkpoint(self, tmp_path):
        stream = trace(60)
        recovered = self._crash_and_recover(tmp_path, stream, crash_at=3, interval=50)
        bare = make_engine()
        bare.run(stream)
        assert recovered.delivered_count == len(bare.results)

    def test_multi_crash_schedule_shared_injector(self, tmp_path):
        stream = trace()
        fault = FaultInjector(crash_at=[40, 90, 140])
        crashes = 0
        while True:
            runner = ResilientRunner(
                make_engine(), tmp_path, checkpoint_every=30, fault=fault
            )
            try:
                runner.run(stream)
                break
            except CrashError:
                crashes += 1
        assert crashes == 3
        bare = make_engine()
        bare.run(stream)
        assert runner.delivered_count == len(bare.results)

    def test_exactly_once_no_duplicate_records(self, tmp_path):
        stream = trace()
        recovered = self._crash_and_recover(
            tmp_path, stream, crash_at=101, interval=20
        )
        lines = (tmp_path / DELIVERED_NAME).read_text().splitlines()
        keys = [json.dumps(json.loads(line)["key"]) for line in lines]
        assert len(keys) == len(set(keys))
        assert recovered.delivered_count == len(keys)


class TestLogRepairAndErrors:
    def test_torn_wal_line_is_truncated(self, tmp_path):
        stream = trace(40)
        fault = FaultInjector(crash_at=[30])
        first = ResilientRunner(
            make_engine(), tmp_path, checkpoint_every=10, fault=fault
        )
        with pytest.raises(CrashError):
            first.run(stream)
        # Simulate a crash mid-append: a trailing fragment without newline.
        with (tmp_path / WAL_NAME).open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "event", "etype": "A"')
        second = ResilientRunner(make_engine(), tmp_path, checkpoint_every=10)
        # The torn element never reached the engine, so it is simply
        # re-fed from the input stream.
        second.run(stream)
        bare = make_engine()
        bare.run(stream)
        assert second.delivered_count == len(bare.results)

    def test_corrupt_interior_wal_line_raises(self, tmp_path):
        runner = ResilientRunner(make_engine(), tmp_path, checkpoint_every=10)
        runner.feed(Event("A", 1, {"x": 0}))
        runner._close_handles()
        raw = (tmp_path / WAL_NAME).read_bytes()
        (tmp_path / WAL_NAME).write_bytes(b"garbage\n" + raw)
        with pytest.raises(RecoveryError):
            ResilientRunner(make_engine(), tmp_path, checkpoint_every=10)

    def test_truncated_delivery_log_raises(self, tmp_path):
        stream = trace()
        fault = FaultInjector(crash_at=[150])
        first = ResilientRunner(
            make_engine(), tmp_path, checkpoint_every=20, fault=fault
        )
        with pytest.raises(CrashError):
            first.run(stream)
        first._close_handles()
        (tmp_path / DELIVERED_NAME).write_text("")  # lose all delivery records
        with pytest.raises(RecoveryError):
            ResilientRunner(make_engine(), tmp_path, checkpoint_every=20)

    def test_wal_shorter_than_checkpoint_raises(self, tmp_path):
        stream = trace(80)
        runner = ResilientRunner(make_engine(), tmp_path, checkpoint_every=20)
        for element in stream:
            runner.feed(element)
        runner._close_handles()
        (tmp_path / WAL_NAME).write_text("")  # checkpoint claims 80 elements
        with pytest.raises(RecoveryError):
            ResilientRunner(make_engine(), tmp_path, checkpoint_every=20)

    def test_recovering_finished_run_is_a_noop(self, tmp_path):
        stream = trace(60)
        ResilientRunner(make_engine(), tmp_path, checkpoint_every=20).run(stream)
        before = (tmp_path / DELIVERED_NAME).read_bytes()
        again = ResilientRunner(make_engine(), tmp_path, checkpoint_every=20)
        assert again.run(stream) == []
        assert (tmp_path / DELIVERED_NAME).read_bytes() == before

    def test_feed_after_recovered_close_raises(self, tmp_path):
        ResilientRunner(make_engine(), tmp_path, checkpoint_every=20).run(trace(30))
        again = ResilientRunner(make_engine(), tmp_path, checkpoint_every=20)
        with pytest.raises(RecoveryError):
            again.feed(Event("A", 10_000, {"x": 0}))

    def test_refused_feed_leaves_the_wal_untouched(self, tmp_path):
        """A feed after close used to be logged before it was refused: the
        WAL then held an element past its close sentinel and every later
        incarnation died replaying it."""
        stream = trace(30)
        ResilientRunner(make_engine(), tmp_path, checkpoint_every=20).run(stream)
        wal = (tmp_path / WAL_NAME).read_bytes()
        again = ResilientRunner(make_engine(), tmp_path, checkpoint_every=20)
        with pytest.raises(RecoveryError):
            again.feed(stream[0])
        again._close_handles()
        assert (tmp_path / WAL_NAME).read_bytes() == wal
        third = ResilientRunner(make_engine(), tmp_path, checkpoint_every=20)
        assert third.recovered and third.replayed_elements == 0
        assert third.run(stream) == []


class TestRefusedElements:
    """An element the engine refuses must not stay in the WAL: replaying
    it would raise the same error from every later recovery.  The refused
    element is a malformed one under the default ``ValidationPolicy.RAISE``."""

    #: Negative timestamp: the engine's admission screen raises StreamError.
    REFUSED = forge_event("B", -11, attrs={"x": 0})

    @staticmethod
    def strict_engine():
        return OutOfOrderEngine(PATTERN, k=2)

    @staticmethod
    def snapshot(directory):
        return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}

    def test_refused_element_does_not_brick_the_directory(self, tmp_path):
        runner = ResilientRunner(self.strict_engine(), tmp_path)
        runner.feed(Event("A", 10, {"x": 0}))
        runner.feed(Event("A", 50, {"x": 0}))
        with pytest.raises(StreamError):
            runner.feed(self.REFUSED)
        # Its engine is ahead of the log now: the runner says so, by name.
        assert runner.seq == 2
        with pytest.raises(RecoveryError, match="StreamError"):
            runner.feed(Event("B", 55, {"x": 0}))
        with pytest.raises(RecoveryError, match="rebuild from the directory"):
            runner.close()

        again = ResilientRunner(self.strict_engine(), tmp_path)
        assert again.recovered and again.seq == 2
        assert again.replayed_elements == 2
        again.feed(Event("B", 55, {"x": 0}))
        again.close()
        assert again.seq == 3 and len(again.matches) == 1  # A@50 .. B@55

    def test_cohort_refused_part_way_leaves_no_trace(self, tmp_path):
        runner = ResilientRunner(self.strict_engine(), tmp_path, checkpoint_every=2)
        delivered = runner.feed(
            [Event("A", 10, {"x": 0}), Event("B", 12, {"x": 1}), Event("A", 13, {"x": 1})]
        )
        assert len(delivered) == 0 and runner.checkpoints_written == 1
        runner.sync()
        before = self.snapshot(tmp_path)
        cohort = [
            Event("B", 14, {"x": 1}),  # A@13 .. B@14 would be delivered...
            Event("A", 50, {"x": 0}),
            Event("A", 51, {"x": 0}),
            self.REFUSED,  # ...but this one is refused
            Event("B", 60, {"x": 0}),
        ]
        with pytest.raises(StreamError):
            runner.feed(cohort)
        assert self.snapshot(tmp_path) == before

        again = ResilientRunner(self.strict_engine(), tmp_path, checkpoint_every=2)
        assert again.seq == 3 and again.delivered_count == 0
        again.feed([e for e in cohort if e is not self.REFUSED])
        again.close()
        assert again.seq == 7 and again.delivered_count == 3

    def test_refused_cohort_of_encoder_lines_leaves_the_wal_as_it_was(self, tmp_path):
        """Lines the full encoder writes (floats, nested values, escaped
        non-ASCII) are cut back by the bytes the call appended."""
        runner = ResilientRunner(self.strict_engine(), tmp_path)
        runner.feed(Event("A", 10, {"x": 0, "note": "naïve ☃", "w": 0.5}))
        runner.sync()
        before = (tmp_path / WAL_NAME).read_bytes()
        cohort = [
            Event("A", 12, {"x": 0, "nested": {"k": ["é", None]}, "f": 1.5}),
            Event("B", 13, {"x": 0, "flag": True, "note": "日本"}),
            self.REFUSED,
        ]
        with pytest.raises(StreamError):
            runner.feed(cohort)
        assert (tmp_path / WAL_NAME).read_bytes() == before
        again = ResilientRunner(self.strict_engine(), tmp_path)
        assert again.seq == 1 and again.replayed_elements == 1

    def test_a_non_ascii_wal_line_fails_before_it_is_written(self, tmp_path, monkeypatch):
        """The WAL is bytes: a line that is not ASCII is refused whole, so
        no later cut can land inside a multi-byte character."""
        runner = ResilientRunner(self.strict_engine(), tmp_path)
        runner.feed(Event("A", 10, {"x": 0}))
        runner.sync()
        before = (tmp_path / WAL_NAME).read_bytes()
        encode = recovery._element_wal_line
        monkeypatch.setattr(
            recovery, "_element_wal_line",
            lambda element: encode(element).replace("\\u00e9", "é"),
        )
        with pytest.raises(UnicodeEncodeError):
            runner.feed([Event("A", 12, {"x": 0, "note": "é"}), self.REFUSED])
        assert (tmp_path / WAL_NAME).read_bytes() == before
        monkeypatch.undo()
        runner.feed(Event("B", 14, {"x": 0}))  # nothing was logged or fed
        runner.close()
        assert runner.seq == 2 and len(runner.matches) == 1
