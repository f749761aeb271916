"""FaultInjector mechanics: crash points, forged events, stream faults.

The injector's contract is determinism — the same schedule produces
the same faults at the same positions — and one-shot firing, so a
single injector shared across runner incarnations scripts an entire
multi-crash scenario.
"""

import math

import pytest

from repro import (
    CrashError,
    Event,
    FaultInjector,
    InOrderEngine,
    OutOfOrderEngine,
    PartitionedEngine,
    Punctuation,
    ReorderingEngine,
    seq,
)
from repro.core.errors import ReproError
from repro.core.event import malformed_reason
from repro.faultinject import CORRUPT_SHAPES, corrupt_event, forge_event
from repro.streams import crash_positions, star_arrival

PATTERN = seq("A a", "B b", within=10, name="fi")


class TestCrashPoints:
    def test_crash_at_fires_once(self):
        fault = FaultInjector(crash_at=[5])
        for index in range(5):
            fault.on_logged(index)
        with pytest.raises(CrashError):
            fault.on_logged(5)
        fault.on_logged(5)  # second pass: already fired
        assert fault.crashes_fired == [5]

    def test_multiple_crash_points_fire_in_schedule_order(self):
        fault = FaultInjector(crash_at=[2, 7])
        fired = []
        for index in range(10):
            try:
                fault.on_logged(index)
            except CrashError:
                fired.append(index)
        assert fired == [2, 7]
        assert fault.crashes_fired == [2, 7]

    def test_crash_on_purge_validated(self):
        with pytest.raises(ReproError):
            FaultInjector(crash_on_purge=0)

    def test_unknown_shape_rejected(self):
        with pytest.raises(ReproError):
            FaultInjector(corrupt_shape="time_travel")


class TestArm:
    def test_ooo_purge_crash_fires_mid_feed(self):
        fault = FaultInjector(crash_on_purge=3)
        engine = fault.arm(OutOfOrderEngine(PATTERN, k=3))
        with pytest.raises(CrashError):
            for ts in range(1, 20):
                engine.feed(Event("A", ts, {}))
        assert fault.crashes_fired == [-1]
        # One-shot: a fresh engine armed with the same injector survives.
        fresh = fault.arm(OutOfOrderEngine(PATTERN, k=3))
        for ts in range(1, 20):
            fresh.feed(Event("A", ts, {}))

    def test_inorder_purge_crash_fires(self):
        fault = FaultInjector(crash_on_purge=2)
        engine = fault.arm(InOrderEngine(PATTERN))
        with pytest.raises(CrashError):
            for ts in range(1, 20):
                engine.feed(Event("A", ts, {}))

    def test_reordering_engine_arms_inner(self):
        fault = FaultInjector(crash_on_purge=1)
        engine = fault.arm(ReorderingEngine(PATTERN, k=2))
        with pytest.raises(CrashError):
            for ts in range(1, 30):
                engine.feed(Event("A", ts, {}))

    def test_partitioned_arms_future_sub_engines(self):
        fault = FaultInjector(crash_on_purge=4)
        engine = fault.arm(PartitionedEngine(PATTERN, k=3, key="x"))
        with pytest.raises(CrashError):
            for ts in range(1, 40):
                engine.feed(Event("A", ts, {"x": ts % 3}))

    def test_speculative_engine_armable(self):
        # Speculation is a side stream of OutOfOrderEngine: same purger hook.
        fault = FaultInjector(crash_on_purge=2)
        engine = fault.arm(OutOfOrderEngine(PATTERN, k=3, speculative=True))
        with pytest.raises(CrashError):
            for ts in range(1, 20):
                engine.feed(Event("A", ts, {}))

    def test_unknown_engine_rejected(self):
        with pytest.raises(ReproError):
            FaultInjector().arm(object())

    def test_armed_purger_still_delegates(self):
        fault = FaultInjector()  # no purge crash scheduled
        engine = fault.arm(OutOfOrderEngine(PATTERN, k=3))
        plain = OutOfOrderEngine(PATTERN, k=3)
        events = [Event("AB"[ts % 2], ts, {}) for ts in range(1, 60)]
        out = [m for e in events for m in engine.feed(e)] + engine.close()
        ref = [m for e in events for m in plain.feed(e)] + plain.close()
        assert [m.key() for m in out] == [m.key() for m in ref]
        assert engine.stats.as_dict() == plain.stats.as_dict()


class TestForgery:
    def test_forge_event_bypasses_validation(self):
        event = forge_event("A", math.nan, attrs={"x": 1})
        assert isinstance(event, Event)
        assert math.isnan(event.ts)
        assert malformed_reason(event) is not None

    @pytest.mark.parametrize("shape", CORRUPT_SHAPES)
    def test_every_corrupt_shape_is_malformed(self, shape):
        assert malformed_reason(corrupt_event(Event("A", 5, {"x": 0}), shape))

    def test_corrupt_event_unknown_shape_rejected(self):
        with pytest.raises(ReproError):
            corrupt_event(Event("A", 5, {}), "time_travel")


class TestWrap:
    def test_corrupt_at_replaces_chosen_indices(self):
        events = [Event("A", ts, {}) for ts in range(1, 6)]
        fault = FaultInjector(corrupt_at=[1, 3], corrupt_shape="nan_ts")
        out = list(fault.wrap(events))
        assert len(out) == 5
        assert malformed_reason(out[1]) and malformed_reason(out[3])
        assert all(malformed_reason(out[i]) is None for i in (0, 2, 4))
        assert out[0] is events[0]

    def test_punctuation_passes_through_untouched(self):
        stream = [Event("A", 1, {}), Punctuation(1), Event("A", 3, {})]
        fault = FaultInjector(corrupt_at=[1], stuck_clock_at=0)
        out = list(fault.wrap(stream))
        assert out[1] is stream[1]

    def test_stuck_clock_clamps_later_timestamps(self):
        events = [Event("A", ts, {}) for ts in (1, 5, 9, 13)]
        fault = FaultInjector(stuck_clock_at=1)
        out = list(fault.wrap(events))
        assert [e.ts for e in out] == [1, 5, 5, 5]
        # Identity is preserved: same type and eid, only time is frozen.
        assert [e.eid for e in out] == [e.eid for e in events]

    def test_stuck_clock_leaves_early_events_alone(self):
        events = [Event("A", ts, {}) for ts in (10, 3, 7, 20)]
        fault = FaultInjector(stuck_clock_at=2)
        out = list(fault.wrap(events))
        # ts 3 and 7 are below the pre-fault max and pass unchanged.
        assert [e.ts for e in out] == [10, 3, 7, 10]

    def test_wrap_is_deterministic(self):
        events = [Event("A", ts, {}) for ts in range(1, 30)]

        def run():
            fault = FaultInjector(
                corrupt_at=[4, 11], corrupt_shape="float_ts", stuck_clock_at=20
            )
            return [(e.etype, e.ts) for e in fault.wrap(events)]

        assert run() == run()


class TestDuplicateAt:
    def test_chosen_indices_are_delivered_twice(self):
        events = [Event("A", ts, {}) for ts in range(1, 6)]
        fault = FaultInjector(duplicate_at=[1, 3])
        out = list(fault.wrap(events))
        assert [e.ts for e in out] == [1, 2, 2, 3, 4, 4, 5]

    def test_duplicate_copies_are_identical(self):
        events = [Event("A", ts, {"v": ts}) for ts in range(1, 5)]
        fault = FaultInjector(duplicate_at=[2])
        out = list(fault.wrap(events))
        assert out[2] == out[3] and out[2].eid == out[3].eid

    def test_punctuation_is_never_duplicated(self):
        elements = [Event("A", 1, {}), Punctuation(2), Event("A", 3, {})]
        fault = FaultInjector(duplicate_at=[1])  # index lands on the punctuation
        out = list(fault.wrap(elements))
        assert len(out) == 3

    def test_duplicate_after_clock_clamp_redelivers_the_clamped_copy(self):
        # An at-least-once transport resends what it sent, so the duplicate
        # must be the post-fault (clamped) event, not a fresh read.
        events = [Event("A", 10, {}), Event("A", 20, {})]
        fault = FaultInjector(stuck_clock_at=0, duplicate_at=[1])
        out = list(fault.wrap(events))
        assert [e.ts for e in out] == [10, 10, 10]
        assert out[1].eid == out[2].eid


class TestOutageCrashPoints:
    """One flaky source among healthy ones: only its outages kill the engine."""

    OUTAGES = {"s0": [(20, 40)], "s1": [(60, 70)]}

    @classmethod
    def arrival_times(cls):
        streams = {
            "s0": [Event("A", ts, {}) for ts in range(0, 100, 2)],
            "s1": [Event("B", ts, {}) for ts in range(1, 100, 2)],
        }
        return star_arrival(streams, (1, 1), cls.OUTAGES)[1]

    def test_one_sources_outages_become_its_crash_points(self):
        times = self.arrival_times()
        crash_at = crash_positions(times, self.OUTAGES["s0"])
        assert crash_at  # the drill is real
        fault = FaultInjector(crash_at=crash_at)
        fired = []
        for index in range(len(times)):
            try:
                fault.on_logged(index)
            except CrashError:
                fired.append(index)
        assert fired == crash_at

    def test_crash_points_differ_per_source(self):
        times = self.arrival_times()
        assert crash_positions(times, self.OUTAGES["s0"]) != crash_positions(
            times, self.OUTAGES["s1"]
        )
