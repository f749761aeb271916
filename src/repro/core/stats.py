"""Operator-level counters: the hardware-independent CPU-cost proxy.

The paper reports CPU cost; our substrate is pure Python on modern
hardware, so absolute milliseconds are not comparable to a 2007 Java
prototype.  Counters of the *algorithmic work performed* — construction
attempts, partial combinations extended, predicate evaluations, purge
scans — are comparable across engines and configurations, and they are
what the optimisation experiments (E5, E6) report alongside wall time.

Every engine owns an :class:`EngineStats`; substrates and the bench
harness read it, never write it.
"""

from __future__ import annotations

from typing import Dict

#: The flow totals an observer exports, by name: the fields each sums.
FLOW_FIELDS = {
    "events": ("events_in",),
    "punctuations": ("punctuations_in",),
    "matches": ("matches_emitted",),
    "late_dropped": ("late_dropped",),
    "quarantined": ("events_quarantined",),
    "shed": ("events_shed",),
    "purged": ("instances_purged", "negatives_purged"),
    "index_hits": ("index_hits",),
    "index_misses": ("index_misses",),
}


class EngineStats:
    """Mutable counter bundle; all counters start at zero."""

    __slots__ = (
        "events_in",
        "punctuations_in",
        "events_admitted",
        "events_ignored",
        "out_of_order_events",
        "late_dropped",
        "construction_triggers",
        "construction_skipped_by_probe",
        "partial_combinations",
        "predicate_evaluations",
        "window_rejections",
        "index_hits",
        "index_misses",
        "matches_emitted",
        "matches_pending",
        "matches_cancelled",
        "purge_runs",
        "instances_purged",
        "negatives_purged",
        "peak_state_size",
        "speculative_emitted",
        "retractions_issued",
        "events_quarantined",
        "events_shed",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def note_state_size(self, size: int) -> None:
        """Track the high-water mark of total retained state."""
        if size > self.peak_state_size:
            self.peak_state_size = size

    def flow_total(self, name: str) -> int:
        """The :data:`FLOW_FIELDS` total *name*, summed over its fields."""
        return sum(getattr(self, field) for field in FLOW_FIELDS[name])

    def as_dict(self) -> Dict[str, int]:
        """Snapshot of all counters (stable key order for reports)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def restore_from(self, counters: Dict[str, int]) -> None:
        """Overwrite every counter from a snapshot dict.

        Missing keys reset to zero so snapshots written before a counter
        existed stay restorable.
        """
        for name in self.__slots__:
            setattr(self, name, counters.get(name, 0))

    def merge(self, other: "EngineStats") -> None:
        """Accumulate *other* into self (peak is max-merged, not summed)."""
        for name in self.__slots__:
            if name == "peak_state_size":
                self.note_state_size(other.peak_state_size)
            else:
                setattr(self, name, getattr(self, name) + getattr(other, name))

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.as_dict().items() if v)
        if not parts:
            return "EngineStats()"
        return f"EngineStats({parts})"
