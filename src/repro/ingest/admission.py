"""Idempotent admission: redelivered frames count, they do not re-feed.

Retrying clients make delivery at-least-once — a crash between durable
admission and the ack makes the client resend, and an ingestion layer
that re-feeds the resend silently double-counts matches.  Admission is
therefore *idempotent within a bounded window*: every frame derives a
deterministic idempotency id (:mod:`repro.ingest.schema`), the
controller keeps one bounded FIFO window of recently admitted ids, and
a frame whose id is in the window is counted as a duplicate and dropped
before the engine ever sees it.

The window is shared by every source.  The id names no source, so one
fact that arrives over two connections is one event, fed once.

The window must survive a crash, or redeliveries racing the restart get
through.  :meth:`AdmissionController.preload_events` rebuilds it from
the WAL the gateway's :class:`~repro.core.recovery.ResilientRunner`
already keeps, so the window before and after a restart is the same.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Iterable, List, Tuple

from repro.core.errors import ConfigurationError
from repro.core.event import Event
from repro.ingest.schema import Decision, StreamSchema


class DedupeWindow:
    """Bounded FIFO set of recently admitted idempotency ids."""

    __slots__ = ("capacity", "_order", "_ids")

    def __init__(self, capacity: int):
        if not isinstance(capacity, int) or isinstance(capacity, bool) or capacity < 1:
            raise ConfigurationError(
                f"dedupe window capacity must be an int >= 1, got {capacity!r}"
            )
        self.capacity = capacity
        self._order: deque = deque()
        self._ids: set = set()

    def __contains__(self, idem_id: str) -> bool:
        return idem_id in self._ids

    def __len__(self) -> int:
        return len(self._ids)

    def add(self, idem_id: str) -> None:
        """Record *idem_id*, evicting the oldest id past capacity."""
        if idem_id in self._ids:
            return
        self._order.append(idem_id)
        self._ids.add(idem_id)
        while len(self._order) > self.capacity:
            evicted = self._order.popleft()
            self._ids.discard(evicted)

    def __repr__(self) -> str:
        return f"DedupeWindow({len(self._ids)}/{self.capacity})"


class SourceAdmission:
    """Per-source accounting."""

    __slots__ = ("admitted", "duplicates", "quarantined")

    def __init__(self) -> None:
        self.admitted = 0
        self.duplicates = 0
        self.quarantined = 0

    def __repr__(self) -> str:
        return (
            f"SourceAdmission(admitted={self.admitted}, "
            f"duplicates={self.duplicates}, quarantined={self.quarantined})"
        )


class AdmissionController:
    """Schema validation + idempotent dedupe across sources, in one decision.

    Parameters
    ----------
    schema:
        The stream's admission contract.
    window:
        Dedupe window capacity (ids), shared by every source.  Bound it
        by the resend horizon: a window of N dedupes any redelivery
        arriving within N admitted frames of the original.
    """

    def __init__(self, schema: StreamSchema, window: int = 4096):
        if not isinstance(schema, StreamSchema):
            raise ConfigurationError(f"schema must be a StreamSchema, got {schema!r}")
        self.schema = schema
        self._window = DedupeWindow(window)  # rejects a window < 1
        self._sources: Dict[str, SourceAdmission] = {}

    # -- the decision -------------------------------------------------------------------

    def decide_cohort(self, source: str, pairs: Iterable[Tuple[Any, Any]]) -> List[Decision]:
        """Decide ``(etype, attrs)`` *pairs* from *source*, in order.

        The one admission body; never raises on bad frames.  Each frame
        takes one call, its event type's admission pass
        (:meth:`StreamSchema.admitter_for`) given the dedupe window's ids,
        and leaves a plain triple: ``(reason, None, None)`` quarantined,
        ``(None, idem, None)`` duplicate (no event built), ``(None, idem,
        event)`` admitted.  The source's counters are looked up once; a
        pair repeated inside the cohort is a duplicate of its first
        occurrence.
        """
        state = self._sources.get(source)
        if state is None:
            state = self._sources[source] = SourceAdmission()
        window = self._window
        # DedupeWindow.add, inlined: the id is known to be absent.
        seen, order, capacity = window._ids, window._order, window.capacity
        admitter_for = self.schema.admitter_for
        decided: List[Decision] = []
        admitted = 0
        try:
            for etype, attrs in pairs:
                decision = admitter_for(etype)(etype, attrs, seen)
                if decision[2] is not None:
                    idem = decision[1]
                    order.append(idem)
                    seen.add(idem)
                    if len(order) > capacity:
                        seen.discard(order.popleft())
                    admitted += 1
                elif decision[1] is None:
                    state.quarantined += 1
                else:
                    state.duplicates += 1
                decided.append(decision)
        finally:  # an id whose material cannot be built (repr raising) propagates
            state.admitted += admitted
        return decided

    # -- recovery -----------------------------------------------------------------------

    def preload_events(self, events: Iterable[Event]) -> int:
        """Refill the window from replayed WAL events.

        Called once after a crash, before any source reconnects: the
        WAL's events re-derive their ids through the schema, so any
        post-restart redelivery of one of them is a duplicate.  Returns
        the number of events loaded (the window keeps the most recent
        ones, so the last ``window`` events of a log load what all of it
        would).
        """
        count = 0
        for event in events:
            self._window.add(self.schema.idempotency_id(event.etype, event._attrs))
            count += 1
        return count

    # -- accounting ---------------------------------------------------------------------

    def source_counts(self, source: str) -> SourceAdmission:
        """Per-source accounting (zeros for a never-seen source)."""
        return self._sources.get(source, SourceAdmission())

    @property
    def dedupe_ids(self) -> int:
        """Ids currently held in the dedupe window (telemetry)."""
        return len(self._window)

    @property
    def admitted(self) -> int:
        return sum(s.admitted for s in self._sources.values())

    @property
    def duplicates(self) -> int:
        return sum(s.duplicates for s in self._sources.values())

    @property
    def quarantined(self) -> int:
        return sum(s.quarantined for s in self._sources.values())

    def sources(self) -> list:
        """Known source ids, sorted for reproducible reporting."""
        return sorted(self._sources)

    def __repr__(self) -> str:
        return (
            f"AdmissionController({self.schema.name!r}, "
            f"sources={len(self._sources)}, admitted={self.admitted}, "
            f"duplicates={self.duplicates}, quarantined={self.quarantined})"
        )
