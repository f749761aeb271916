"""Idempotent admission: duplicates are counted, never re-fed."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError
from repro.ingest import AdmissionController, DedupeWindow

from ingest_helpers import make_schema


def controller(window: int = 16) -> AdmissionController:
    return AdmissionController(make_schema(slack=2), window=window)


def decide(ctrl, source, attrs):
    """``(reason, idem, event)`` for one ``A`` frame from *source*."""
    return ctrl.decide_cohort(source, [("A", attrs)])[0]


# -- the dedupe window -----------------------------------------------------------------


def test_window_dedupes_within_capacity():
    window = DedupeWindow(3)
    window.add("a")
    window.add("b")
    assert "a" in window and "b" in window and "c" not in window


def test_window_evicts_oldest_past_capacity():
    window = DedupeWindow(2)
    for idem in ("a", "b", "c"):
        window.add(idem)
    assert "a" not in window  # evicted
    assert "b" in window and "c" in window
    assert len(window) == 2


def test_window_re_add_is_idempotent():
    window = DedupeWindow(2)
    window.add("a")
    window.add("a")
    window.add("b")
    assert "a" in window and len(window) == 2


def test_window_rejects_bad_capacity():
    with pytest.raises(ConfigurationError):
        DedupeWindow(0)


@pytest.mark.parametrize("window", [0, -1])
def test_controller_rejects_bad_window_up_front(window):
    with pytest.raises(ConfigurationError, match="capacity must be an int >= 1"):
        controller(window)


# -- the decision ----------------------------------------------------------------------


def test_first_delivery_admitted_redelivery_counted():
    ctrl = controller()
    first = decide(ctrl, "s1", {"ts": 1, "x": 1})
    again = decide(ctrl, "s1", {"ts": 1, "x": 1})
    assert first[2] is not None and first[2].ts == 1  # admitted
    assert again[0] is None and again[2] is None  # duplicate
    assert ctrl.admitted == 1 and ctrl.duplicates == 1


def test_quarantine_counts_and_reports_reason():
    ctrl = controller()
    reason, idem, event = decide(ctrl, "s1", {"x": 1})
    assert idem is None and event is None  # quarantined
    assert "missing required field 'ts'" in reason
    assert ctrl.quarantined == 1


def test_windows_are_per_source():
    """One window serves every source: the id names no source, so the
    same frame from a second source is a duplicate, counted there."""
    ctrl = controller()
    assert decide(ctrl, "s1", {"ts": 1, "x": 1})[2] is not None  # admitted
    reason, __, event = decide(ctrl, "s2", {"ts": 1, "x": 1})
    assert reason is None and event is None  # duplicate
    assert ctrl.source_counts("s1").admitted == 1
    assert ctrl.source_counts("s2").duplicates == 1
    assert ctrl.dedupe_ids == 1


def test_window_bound_limits_dedupe_horizon():
    ctrl = controller(window=2)
    decide(ctrl, "s1", {"ts": 1, "x": 1})
    decide(ctrl, "s1", {"ts": 2, "x": 2})
    decide(ctrl, "s1", {"ts": 3, "x": 3})  # evicts ts=1 from the window
    late_replay = decide(ctrl, "s1", {"ts": 1, "x": 1})
    assert late_replay[2] is not None  # admitted: beyond the horizon


def test_preload_seeds_recovery_window():
    schema = make_schema(slack=2)
    before = AdmissionController(schema, window=16)
    __, __, admitted = decide(before, "s1", {"ts": 1, "x": 1})

    after = AdmissionController(schema, window=16)
    after.preload_events([admitted])
    replay = decide(after, "s1", {"ts": 1, "x": 1})
    assert replay[0] is None and replay[2] is None  # duplicate
    # ...from any source, as before the restart: the window is shared.
    replay_other = decide(after, "s2", {"ts": 1, "x": 1})
    assert replay_other[0] is None and replay_other[2] is None


def test_preload_fills_the_window_new_admissions_evict_from():
    """Preloaded and live ids share one FIFO, so a restart changes
    nothing about which redelivery the window still remembers."""
    schema = make_schema(slack=2)
    before = AdmissionController(schema, window=2)
    __, __, first = decide(before, "s1", {"ts": 1, "x": 1})

    after = AdmissionController(schema, window=2)
    after.preload_events([first])
    decide(after, "s1", {"ts": 2, "x": 2})
    decide(after, "s2", {"ts": 3, "x": 3})  # evicts the preloaded ts=1
    assert after.dedupe_ids == 2
    replay = decide(after, "s1", {"ts": 1, "x": 1})
    assert replay[2] is not None  # admitted: beyond the horizon


def test_admitted_events_carry_schema_derived_identity():
    schema = make_schema(slack=2)
    ctrl = AdmissionController(schema, window=8)
    __, idem, event = decide(ctrl, "s1", {"ts": 4, "x": 9})
    assert event.eid == schema.derive_eid(idem)
