"""Buffer-and-sort baseline: fix disorder *before* the engine.

The conservative alternative the paper argues against: put a K-slack
reorder buffer in front of an unmodified in-order engine.  Events are
held in a priority queue keyed on occurrence time and released — in
timestamp order — only once the clock guarantees nothing older can
still arrive (``ts <= clock - K``).  The inner engine then sees a
perfectly ordered stream and is exactly correct.

The price, which experiments E3/E4 quantify:

* **latency** — every event, and therefore every result, is delayed by
  up to K time units even when the stream happens to be in order;
* **memory** — the buffer holds O(arrival rate × K) events *in
  addition to* the engine's own state;
* **throughput** — the heap adds log-cost per event, though this is
  minor next to the latency cost.

Correctness matches the oracle exactly (pinned by tests), so E2/E3
compare two *correct* systems — the paper's native engine wins on
latency and buffer memory, not on result quality.
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Optional

from repro.core.clock import StreamClock
from repro.core.engine import Engine, ValidationPolicy
from repro.core.errors import ConfigurationError
from repro.core.event import (
    Event,
    Punctuation,
    StreamElement,
    admission_error,
    malformed_reason,
)
from repro.core.inorder import InOrderEngine
from repro.core.pattern import Match, Pattern
from repro.core.purge import PurgePolicy


class ReorderingEngine(Engine):
    """K-slack reorder buffer feeding an :class:`InOrderEngine`.

    Parameters
    ----------
    pattern:
        The compiled query.
    k:
        Disorder bound; must be a concrete integer here (the buffer
        needs a release rule; ``None`` would buffer forever).
    purge:
        Purge policy for the *inner* engine.
    """

    def __init__(
        self,
        pattern: Pattern,
        k: int,
        purge: Optional[PurgePolicy] = None,
    ) -> None:
        super().__init__(pattern)
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise ConfigurationError(
                f"ReorderingEngine requires a concrete disorder bound K >= 0, got {k!r}"
            )
        self.k = k
        self.clock = StreamClock(k)
        self.inner = InOrderEngine(pattern, purge=purge)
        self._buffer: List[tuple] = []  # (ts, eid, event) min-heap
        self.buffer_peak = 0

    # -- observability -----------------------------------------------------------

    def enable_observability(self, tracer=None, metrics=None):
        """Instrument this tier and, when tracing, the inner engine too.

        The inner engine shares the tracer under the ``"inner"`` stream
        tag — so a lifecycle shows both the buffer residency (outer
        BUFFERED/RELEASED spans) and the in-order admission/match story
        — but *not* the registry: flow metrics are reported once, at
        this tier, never double-counted.
        """
        obs = super().enable_observability(tracer=tracer, metrics=metrics)
        if obs.tracing:
            from repro.obs.hooks import Observability

            self.inner._obs = Observability(
                self.inner, tracer=obs.tracer, registry=None, stream="inner"
            )
        return obs

    # -- state ----------------------------------------------------------------

    def state_size(self) -> int:
        return self.buffer_size() + self.inner.state_size()

    def buffer_size(self) -> int:
        """Events currently held back by the reorder buffer."""
        return len(self._buffer)

    def oldest_buffered_ts(self) -> Optional[int]:
        """Occurrence time of the oldest event the buffer is holding.

        The reorder-hold probe for latency attribution: the distance
        between this and the merged watermark is *why* an event is still
        waiting.  None when nothing is buffered.
        """
        if not self._buffer:
            return None
        return self._buffer[0][0]

    # -- checkpoint / restore -----------------------------------------------------

    def _snapshot_config(self) -> dict:
        config = super()._snapshot_config()
        config.update(
            {
                "k": self.k,
                "inner_purge": (
                    self.inner.purge_policy.mode.value,
                    self.inner.purge_policy.interval,
                ),
            }
        )
        return config

    def _snapshot_state(self) -> dict:
        state = self._base_state()
        state.update(
            {
                "clock": self.clock.snapshot_state(),
                "buffer": [entry[2] for entry in self._buffer],
                "buffer_peak": self.buffer_peak,
                "inner": self.inner._snapshot_state(),
            }
        )
        return state

    def _restore_state(self, state: dict) -> None:
        self._restore_base(state)
        self.clock.restore_state(state["clock"])
        self._buffer = [(e.ts, e.eid, e) for e in state["buffer"]]
        heapq.heapify(self._buffer)
        self.buffer_peak = state["buffer_peak"]
        self.inner._restore_state(state["inner"])

    # -- processing -------------------------------------------------------------

    def _on_punctuation(self, punctuation: Punctuation) -> List[Match]:
        self.clock.observe_punctuation(punctuation)
        emitted = self._drain(self.clock.horizon())
        emitted.extend(self._relay(self.inner.feed(punctuation)))
        return emitted

    def _run(self, elements: Iterable[StreamElement]) -> List[Match]:
        """The engine's one step loop; every feeding surface runs it.

        Buffer bookkeeping is hoisted into locals and each element's
        drain is handed to the inner engine as one batch (the drain
        happens after this element advanced the clock, so every released
        event shares the same emission clock).  The buffer-residency
        trace hook is an optional step behind one hoisted ``is not None``
        test.
        """
        emitted: List[Match] = []
        stats = self.stats
        clock = self.clock
        buffer = self._buffer
        heappush = heapq.heappush
        drain = self._drain
        inner_state_size = self.inner.state_size
        note_buffered = self._obs.note_buffered if self._obs is not None else None
        k = self.k
        quarantine = self.validation is ValidationPolicy.QUARANTINE
        quarantined = 0
        max_ts = clock._max_ts
        horizon = clock.horizon()
        observations = 0
        buffer_peak = self.buffer_peak
        peak = stats.peak_state_size
        events_in = 0
        late_dropped = 0
        out_of_order = 0
        try:
            for element in elements:
                if isinstance(element, Event):
                    ts = element.ts
                    etype = element.etype
                    # Inlined admission screen (mirrors malformed_reason):
                    # a NaN/float timestamp would silently corrupt the
                    # heap order this engine's correctness rests on.
                    if (
                        type(ts) is not int
                        or ts < 0
                        or not isinstance(etype, str)
                        or not etype
                    ):
                        if quarantine:
                            quarantined += 1
                            continue
                        raise admission_error(element)
                    self._arrival += 1
                    events_in += 1
                    if ts <= horizon:
                        # The promise is broken; releasing it now would
                        # feed the inner engine out of order and void its
                        # correctness, so drop.
                        late_dropped += 1
                        continue
                    observations += 1
                    if ts > max_ts:
                        max_ts = ts
                        clock._max_ts = ts
                        advanced = ts - k - 1
                        if advanced > horizon:
                            horizon = advanced
                    elif ts < max_ts:
                        out_of_order += 1
                    heappush(buffer, (ts, element.eid, element))
                    held = len(buffer)
                    if held > buffer_peak:
                        buffer_peak = held
                    if note_buffered is not None:
                        note_buffered(self, element)
                    if buffer[0][0] <= horizon:
                        emitted.extend(drain(horizon))
                else:
                    if malformed_reason(element) is not None:
                        if quarantine:
                            quarantined += 1
                            continue
                        raise admission_error(element)
                    stats.punctuations_in += 1
                    clock._observations += observations
                    observations = 0
                    self.buffer_peak = buffer_peak
                    emitted.extend(self._on_punctuation(element))
                    max_ts = clock._max_ts
                    horizon = clock.horizon()
                    buffer_peak = self.buffer_peak
                size_now = len(buffer) + inner_state_size()
                if size_now > peak:
                    peak = size_now
        finally:
            clock._observations += observations
            self.buffer_peak = buffer_peak
            stats.peak_state_size = peak
            stats.events_quarantined += quarantined
            stats.events_in += events_in
            stats.late_dropped += late_dropped
            stats.out_of_order_events += out_of_order
        return emitted

    def _drain(self, horizon: int) -> List[Match]:
        """Release every buffered event sealed at *horizon*, in ts order."""
        buffer = self._buffer
        released = []
        while buffer and buffer[0][0] <= horizon:
            released.append(heapq.heappop(buffer)[2])
        if not released:
            return released
        if self._obs is not None:
            for event in released:
                self._obs.note_released(self, event)
        return self._relay(self.inner.feed_batch(released))

    # Inner-engine work counters folded into the outer stats at close,
    # so cost accounting (construction work, purge activity) is visible
    # at the strategy level the benchmarks compare.  Flow counters
    # (events_in, matches_emitted) are NOT folded — the outer engine
    # already tracks those and folding would double-count.
    _FOLDED_COUNTERS = (
        "events_admitted",
        "events_ignored",
        "construction_triggers",
        "construction_skipped_by_probe",
        "partial_combinations",
        "predicate_evaluations",
        "window_rejections",
        "matches_cancelled",
        "purge_runs",
        "instances_purged",
        "negatives_purged",
    )

    def _flush(self) -> List[Match]:
        emitted: List[Match] = []
        while self._buffer:
            __, __, event = heapq.heappop(self._buffer)
            if self._obs is not None:
                self._obs.note_released(self, event)
            emitted.extend(self._relay(self.inner.feed(event)))
        emitted.extend(self._relay(self.inner.close()))
        for name in self._FOLDED_COUNTERS:
            setattr(
                self.stats,
                name,
                getattr(self.stats, name) + getattr(self.inner.stats, name),
            )
        return emitted

    def _relay(self, matches: List[Match]) -> List[Match]:
        """Surface inner-engine emissions through this engine's bookkeeping.

        This engine is the inner one's receiver, so it takes what it was
        handed: the inner engine keeps (and snapshots) no second copy.
        """
        if matches:
            self.inner.take_emissions()
        for match in matches:
            self._emit(match, self.clock.now)
        return matches
