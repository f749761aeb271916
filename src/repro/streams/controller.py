"""Quality-driven adaptive-K: repeated re-freeze at punctuation boundaries.

Experiment E12 adapts K the honest way exactly once — train an estimator
on a prefix, freeze, run — because the purge proofs forbid the bound
from shrinking mid-run.  This module generalises that freeze protocol
to *repeated* re-freeze points (Ji et al., "Quality-Driven
Disorder Handling", PAPERS.md): every punctuation closes an **epoch**,
and at the boundary the controller may pick a new K and flip the
optimistic/pessimistic choice for the next epoch.  Soundness is
preserved by :meth:`repro.core.clock.StreamClock.refreeze`, which folds
the pre-change horizon into the punctuated floor so the horizon stays
monotone — mid-epoch, K never changes at all.

The decision inputs are the engine's own quality signals:

* a delay-quantile estimator (:class:`~repro.streams.kslack.QuantileK`)
  fed every arrival, targeting the configured *quality_target* fraction
  of events admitted in time;
* the late-drop rate of the closing epoch — when it exceeds the
  ``1 - quality_target`` allowance, the bound never shrinks (and grows
  to the estimator's recommendation);
* the retraction rate of the closing epoch — speculation is switched
  off when it exceeds *retraction_budget* and back on once it falls to
  half the budget (hysteresis, so a single borderline epoch does not
  flap the mode).

Shrinking is damped (at most halving per epoch) so one calm epoch in a
bursty stream cannot collapse the bound; growing is immediate, because
under-provisioned K converts directly into late-drops.  The controller
is deterministic state: it snapshots/restores with the engine and every
decision is recorded in :attr:`AdaptiveKController.history`.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.core.errors import ConfigurationError
from repro.core.event import Event
from repro.streams.kslack import QuantileK

#: Decision-history bound: enough to reconstruct any plausible run's
#: trajectory while keeping snapshots O(1) in stream length.
HISTORY_LIMIT = 256


class ControllerDecision(NamedTuple):
    """One re-freeze outcome, recorded at a punctuation boundary."""

    at_ts: int  #: punctuation timestamp that closed the epoch
    k: int  #: the bound frozen for the next epoch
    speculate: bool  #: optimistic (True) or pessimistic next epoch
    reason: str  #: "grow" | "decay" | "hold" | "quality-floor"


class AdaptiveKController:
    """Per-engine (or per-partition) quality-driven disorder-bound policy.

    Pass one instance to the engine; it is cloned at attachment (and
    per partition by :class:`~repro.core.partition.PartitionedEngine`),
    so a single configured controller can parameterise a whole engine
    tree without sharing mutable state.

    Parameters
    ----------
    quality_target:
        Fraction of events that must arrive within the bound; drives
        both the delay quantile the estimator tracks and the late-drop
        allowance of the shrink guard.
    window:
        Sliding sample window of the delay estimator.
    margin:
        Additive safety margin on the quantile estimate (ts units).
    initial_k:
        Cold-start floor for the recommendation (see
        ``QuantileK(initial=...)``) — prevents the first re-freeze from
        locking in K=0 before the estimator has seen real disorder.
    min_k / max_k:
        Hard clamp on every recommendation (``max_k=None`` = unbounded).
    retraction_budget:
        Highest tolerable fraction of speculative emissions withdrawn
        per epoch before the controller falls back to pessimistic mode.
    min_epoch_events:
        Epochs with fewer processed events than this do not trigger a
        decision (the epoch simply extends to the next punctuation) —
        a near-empty epoch has no statistics worth acting on.
    """

    def __init__(
        self,
        quality_target: float = 0.99,
        window: int = 1024,
        margin: int = 1,
        initial_k: int = 0,
        min_k: int = 0,
        max_k: Optional[int] = None,
        retraction_budget: float = 0.1,
        min_epoch_events: int = 32,
    ) -> None:
        if min_k < 0:
            raise ConfigurationError(f"min_k must be >= 0, got {min_k}")
        if max_k is not None and max_k < min_k:
            raise ConfigurationError(
                f"max_k must be >= min_k, got max_k={max_k} min_k={min_k}"
            )
        if not 0.0 <= retraction_budget <= 1.0:
            raise ConfigurationError(
                f"retraction_budget must be in [0, 1], got {retraction_budget}"
            )
        if min_epoch_events < 1:
            raise ConfigurationError(
                f"min_epoch_events must be >= 1, got {min_epoch_events}"
            )
        # QuantileK validates quality_target/window/margin/initial_k.
        self.estimator = QuantileK(
            quantile=quality_target,
            window=window,
            margin=margin,
            initial=max(initial_k, min_k),
        )
        self.quality_target = quality_target
        self.initial_k = initial_k
        self.min_k = min_k
        self.max_k = max_k
        self.retraction_budget = retraction_budget
        self.min_epoch_events = min_epoch_events
        self.speculate = True
        self.history: List[ControllerDecision] = []
        self.adjustments = 0
        # Counter baselines at the last decision; epoch deltas are
        # computed against these, and a skipped (too-small) epoch leaves
        # them untouched so it merges into the next one.
        self._base_events = 0
        self._base_late = 0
        self._base_speculated = 0
        self._base_retracted = 0

    # -- signal intake -----------------------------------------------------------

    def observe(self, event: Event) -> None:
        """Feed one arrival (called by the engine before lateness triage,
        so the estimator sees delays the current bound would drop —
        otherwise K could never grow out of an under-provisioned start).
        """
        self.estimator.observe(event)

    def recommended_k(self) -> int:
        """The estimator's current recommendation, clamped to [min_k, max_k]."""
        k = max(self.min_k, self.estimator.current())
        if self.max_k is not None and k > self.max_k:
            k = self.max_k
        return k

    # -- the re-freeze point ------------------------------------------------------

    def refreeze(self, at_ts, current_k, stats) -> Optional[ControllerDecision]:
        """Close an epoch and choose the bound/mode for the next one.

        Called by the engine at each punctuation with the bound now in
        force and its live :class:`~repro.core.stats.EngineStats`.
        Returns None when the closing epoch was too small to act on.
        """
        events = stats.events_in - self._base_events
        if events < self.min_epoch_events:
            return None
        late = stats.late_dropped - self._base_late
        speculated = stats.speculative_emitted - self._base_speculated
        retracted = stats.retractions_issued - self._base_retracted

        target = self.recommended_k()
        if current_k is None:
            # No promise yet: the controller introduces one (that is the
            # point of quality-driven adaptation — bounded state and
            # latency instead of punctuation-only sealing).
            new_k, reason = target, "grow"
        elif target > current_k:
            new_k, reason = target, "grow"
        elif target < current_k:
            # Damped shrink: at most halve per epoch, so one calm epoch
            # in a bursty stream cannot collapse the bound.
            new_k, reason = max(target, current_k // 2), "decay"
        else:
            new_k, reason = current_k, "hold"
        if late / events > (1.0 - self.quality_target) and current_k is not None:
            # The closing epoch already missed the quality target: never
            # shrink on top of that, whatever the estimator thinks.
            if new_k < current_k:
                new_k, reason = current_k, "quality-floor"

        if speculated > 0:
            rate = retracted / speculated
            if rate > self.retraction_budget:
                self.speculate = False
            elif rate <= self.retraction_budget / 2.0:
                self.speculate = True

        decision = ControllerDecision(at_ts, new_k, self.speculate, reason)
        self.history.append(decision)
        if len(self.history) > HISTORY_LIMIT:
            del self.history[: len(self.history) - HISTORY_LIMIT]
        if new_k != current_k:
            self.adjustments += 1
        self._base_events = stats.events_in
        self._base_late = stats.late_dropped
        self._base_speculated = stats.speculative_emitted
        self._base_retracted = stats.retractions_issued
        return decision

    # -- identity / attachment ---------------------------------------------------

    def fingerprint(self) -> tuple:
        """Hashable configuration identity for snapshot verification."""
        return (
            self.quality_target,
            self.estimator.window,
            self.estimator.margin,
            self.initial_k,
            self.min_k,
            self.max_k,
            self.retraction_budget,
            self.min_epoch_events,
        )

    def clone(self) -> "AdaptiveKController":
        """A fresh controller with identical configuration and no state."""
        return AdaptiveKController(
            quality_target=self.quality_target,
            window=self.estimator.window,
            margin=self.estimator.margin,
            initial_k=self.initial_k,
            min_k=self.min_k,
            max_k=self.max_k,
            retraction_budget=self.retraction_budget,
            min_epoch_events=self.min_epoch_events,
        )

    # -- checkpointing -------------------------------------------------------------

    def snapshot_state(self) -> dict:
        return {
            "estimator": {
                "max_ts": self.estimator._max_ts,
                "recent": list(self.estimator._recent),
                "sorted": list(self.estimator._sorted),
            },
            "speculate": self.speculate,
            "history": [list(d) for d in self.history],
            "adjustments": self.adjustments,
            "baselines": [
                self._base_events,
                self._base_late,
                self._base_speculated,
                self._base_retracted,
            ],
        }

    def restore_state(self, state: dict) -> None:
        from collections import deque

        self.estimator._max_ts = state["estimator"]["max_ts"]
        self.estimator._recent = deque(state["estimator"]["recent"])
        self.estimator._sorted = list(state["estimator"]["sorted"])
        self.speculate = state["speculate"]
        self.history = [
            ControllerDecision(at_ts, k, speculate, reason)
            for at_ts, k, speculate, reason in state["history"]
        ]
        self.adjustments = state["adjustments"]
        (
            self._base_events,
            self._base_late,
            self._base_speculated,
            self._base_retracted,
        ) = state["baselines"]

    def __repr__(self) -> str:
        return (
            f"AdaptiveKController(target={self.quality_target}, "
            f"recommended={self.recommended_k()}, speculate={self.speculate}, "
            f"adjustments={self.adjustments})"
        )
