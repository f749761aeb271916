"""Result-quality metrics: recall/precision against the oracle.

Experiment E1 (and every correctness assertion in the test suite)
reduces to comparing an engine's emitted result set with the offline
oracle's.  Matches compare by identity keys (pattern name + member
event ids), so set arithmetic is exact — no fuzzy matching.

Reports optionally carry a **shed** count — events the engine dropped
deliberately under overload (:class:`repro.core.shedding.ShedPolicy`).
Shedding trades recall for bounded state, and a report that says "recall 0.92" without saying "because
4 000 events were shed" misattributes the loss to a correctness bug.
"""

from __future__ import annotations

from typing import Set, Tuple


class QualityReport:
    """Recall / precision of a produced result set vs. ground truth."""

    __slots__ = (
        "truth_size", "produced_size", "missed", "spurious", "shed", "quarantined",
    )

    def __init__(
        self,
        truth: Set[Tuple],
        produced: Set[Tuple],
        shed: int = 0,
        quarantined: int = 0,
    ):
        self.truth_size = len(truth)
        self.produced_size = len(produced)
        self.missed = len(truth - produced)
        self.spurious = len(produced - truth)
        self.shed = shed
        self.quarantined = quarantined

    @property
    def recall(self) -> float:
        if self.truth_size == 0:
            return 1.0
        return (self.truth_size - self.missed) / self.truth_size

    @property
    def precision(self) -> float:
        if self.produced_size == 0:
            return 1.0 if self.truth_size == 0 else 0.0
        return (self.produced_size - self.spurious) / self.produced_size

    @property
    def exact(self) -> bool:
        """True when the produced set equals the truth set exactly."""
        return self.missed == 0 and self.spurious == 0

    def __repr__(self) -> str:
        shed = f", shed={self.shed}" if self.shed else ""
        quarantined = f", quarantined={self.quarantined}" if self.quarantined else ""
        return (
            f"QualityReport(recall={self.recall:.3f}, precision={self.precision:.3f}, "
            f"missed={self.missed}, spurious={self.spurious}{shed}{quarantined})"
        )


def compare_keys(
    truth: Set[Tuple],
    produced: Set[Tuple],
    shed: int = 0,
    quarantined: int = 0,
) -> QualityReport:
    """Build a report from pre-extracted identity-key sets."""
    return QualityReport(set(truth), set(produced), shed=shed, quarantined=quarantined)
