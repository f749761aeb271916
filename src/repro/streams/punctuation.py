"""Punctuation injection: in-band progress assertions.

A punctuation ``<= t`` tells the engine no event with occurrence time
at or below *t* remains in flight, letting it purge and seal negation
beyond what the K promise alone allows.

* :class:`PeriodicPunctuator` — a source that knows its own send buffer
  is flushed emits a punctuation every *period* events, lagging the
  max emitted timestamp by a *slack* it guarantees locally;
* :class:`SourceWatermarks` — a multi-source ingestion point merges
  per-source marks into one conservative assertion.

Neither asserts beyond what the configured slack justifies, and the
injected stream's event content is unchanged.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

from repro.core.errors import ConfigurationError
from repro.core.event import Event, Punctuation, StreamElement


class PeriodicPunctuator:
    """Insert a punctuation after every *period* events.

    The asserted timestamp is ``max_ts_so_far - slack - 1``; *slack*
    must dominate the residual disorder the source cannot rule out
    (zero for a source that is itself ordered).  The extra ``- 1``
    mirrors the engine-clock horizon convention: an event delayed by
    exactly *slack* — or a timestamp tie at slack zero — may still
    arrive, so only strictly older times are sealed.
    """

    def __init__(self, period: int, slack: int = 0):
        if period < 1:
            raise ConfigurationError(f"period must be >= 1, got {period}")
        if slack < 0:
            raise ConfigurationError(f"slack must be >= 0, got {slack}")
        self.period = period
        self.slack = slack

    def apply(self, events: Iterable[Event]) -> Iterator[StreamElement]:
        max_ts = -1
        count = 0
        last_asserted = -1
        for event in events:
            if event.ts > max_ts:
                max_ts = event.ts
            yield event
            count += 1
            if count % self.period == 0:
                asserted = max_ts - self.slack - 1
                if asserted > last_asserted and asserted >= 0:
                    last_asserted = asserted
                    yield Punctuation(asserted)


class SourceWatermarks:
    """Per-source high-water marks merged into one conservative assertion.

    A multi-source ingestion point cannot punctuate from the merged
    stream's max timestamp — one fast source would assert away another
    source's in-flight events.  The sound merge is per-source: each
    source maintains its own watermark (``max t_event - slack - 1``, the
    same ``- 1`` horizon convention as :class:`PeriodicPunctuator`, or
    an explicit assertion from the source), and the merged watermark is
    the **minimum over unfenced sources** — no source that may still
    send is ever overtaken.

    *Fencing* is the liveness escape hatch: a source marked fenced
    (degraded, disconnected) stops holding the minimum back, trading
    that source's late events — which the engine will count as late
    drops — for bounded sealing latency of everyone else's results.
    When every source is fenced the merge advances to the furthest
    known mark rather than stalling.

    The class is pure bookkeeping — no clock, no I/O — so the gateway's
    punctuation stream is a deterministic function of the observation
    sequence.  :meth:`advance` enforces monotonicity: merged output
    never regresses even when a reconnecting source reappears with a
    stale mark.
    """

    __slots__ = ("slack", "_marks", "_fenced", "_emitted")

    def __init__(self, slack: int = 0):
        if slack < 0:
            raise ConfigurationError(f"slack must be >= 0, got {slack}")
        self.slack = slack
        self._marks: dict = {}
        self._fenced: dict = {}  # source -> True; a dict for ordered, replayable iteration
        self._emitted = -1

    def observe(self, source: str, ts: int) -> None:
        """An event with occurrence time *ts* arrived from *source*.

        The first observation always registers the source — even at a
        negative mark — so a source still near the epoch participates
        in (and conservatively holds back) the merge from its very
        first frame; an unknown-vs-``-1`` conflation here would let the
        merge race past a slow starter and turn its early events into
        late drops.
        """
        mark = ts - self.slack - 1
        current = self._marks.get(source)
        if current is None or mark > current:
            self._marks[source] = mark

    def assert_watermark(self, source: str, ts: int) -> None:
        """The source itself asserts no future event ``<= ts``."""
        current = self._marks.get(source)
        if current is None or ts > current:
            self._marks[source] = ts

    def fence(self, source: str) -> None:
        """Stop *source* holding back the merge (degraded/disconnected)."""
        if source in self._marks or source in self._fenced:
            self._fenced[source] = True

    def unfence(self, source: str, floor: int = -1) -> None:
        """Re-admit *source* to the merge, lifting its mark to *floor*.

        *floor* is normally the last emitted merged watermark: a
        reconnecting source must not drag the minimum below assertions
        already delivered downstream (its own older events are late by
        definition — the engine counts and drops them).

        A source unseen so far is *registered* at the floor: from the
        moment it (re)connects it counts in the merge, pinning the
        minimum until it speaks or the liveness tracker fences it — a
        connected-but-silent source is a bounded stall, not an ignored
        one.
        """
        self._fenced.pop(source, None)
        current = self._marks.get(source)
        if current is None or floor > current:
            self._marks[source] = floor

    def forget(self, source: str) -> None:
        """Drop *source* from the merge entirely."""
        self._marks.pop(source, None)
        self._fenced.pop(source, None)

    def mark(self, source: str) -> int:
        """The source's current watermark (-1 before any observation)."""
        return self._marks.get(source, -1)

    def is_fenced(self, source: str) -> bool:
        return source in self._fenced

    def merged(self) -> int:
        """The sound merged watermark at this instant (-1 when unknown)."""
        merged = None
        furthest = -1
        for source, mark in self._marks.items():
            if mark > furthest:
                furthest = mark
            if source in self._fenced:
                continue
            if merged is None or mark < merged:
                merged = mark
        if merged is not None:
            return merged
        return furthest

    @property
    def emitted(self) -> int:
        """The last merged watermark handed out by :meth:`advance`."""
        return self._emitted

    def advance(self) -> Optional[Punctuation]:
        """The punctuation to inject now, or None when nothing advanced."""
        merged = self.merged()
        if merged > self._emitted:
            self._emitted = merged
            if merged >= 0:
                return Punctuation(merged)
        return None

    def snapshot_state(self) -> dict:
        return {
            "marks": dict(self._marks),
            "fenced": list(self._fenced),
            "emitted": self._emitted,
        }

    def restore_state(self, state: dict) -> None:
        self._marks = dict(state["marks"])
        self._fenced = {source: True for source in state["fenced"]}
        self._emitted = state["emitted"]

    def __repr__(self) -> str:
        return (
            f"SourceWatermarks(sources={len(self._marks)}, "
            f"fenced={len(self._fenced)}, merged={self.merged()})"
        )


def strip_punctuation(elements: Iterable[StreamElement]) -> List[Event]:
    """Remove punctuations, keeping events in place (test helper)."""
    return [element for element in elements if isinstance(element, Event)]


def validate_punctuation(elements: Iterable[StreamElement]) -> bool:
    """True when no event contradicts a preceding punctuation."""
    asserted = -1
    for element in elements:
        if isinstance(element, Punctuation):
            asserted = max(asserted, element.ts)
        elif element.ts <= asserted:
            return False
    return True
