"""Ordered output: release matches in occurrence order, safely.

An out-of-order engine emits each match the moment it completes — which
means the *output* stream is ordered by detection, not by occurrence.
Downstream consumers that fold results into time-ordered state (ledgers,
dashboards, downstream CEP with order assumptions) want the
**partial-order guarantee** of the authors' follow-up work: results
delivered in non-decreasing end-timestamp order.

The adapter buys that guarantee with the same horizon reasoning the
engine itself uses: any future match must include a not-yet-arrived
event, every such event has ``ts > horizon``, and a match's end
timestamp is the max over its members — so once ``end_ts ≤ horizon``
no earlier-ending match can ever appear, and the held prefix can be
released in ``(end_ts, start_ts, identity)`` order.

Latency cost: a match waits until the horizon passes its end timestamp
(≈K behind the clock), the same price the conservative engine already
pays for negation — here applied to every result, by choice.
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Tuple

from repro.core.engine import Engine
from repro.core.errors import ConfigurationError
from repro.core.event import StreamElement
from repro.core.pattern import Match


class OrderedOutputAdapter:
    """Wrap an engine; deliver its matches in end-timestamp order.

    Works with any engine exposing a ``clock`` with ``horizon()`` —
    ``OutOfOrderEngine``, ``PartitionedEngine``, ``ReorderingEngine``
    (the ordering guarantee covers the sealed stream; a speculative
    engine's side stream is not reordered).

    >>> adapter = OrderedOutputAdapter(OutOfOrderEngine(q, k=10))  # doctest: +SKIP
    >>> ordered = adapter.run(arrival)                             # doctest: +SKIP
    """

    def __init__(self, engine: Engine):
        if not hasattr(engine, "clock"):
            raise ConfigurationError(
                f"{type(engine).__name__} exposes no clock; cannot order output"
            )
        self.engine = engine
        self._held: List[Tuple[int, int, Tuple, Match]] = []
        self.delivered: List[Match] = []

    # -- stream surface ----------------------------------------------------------

    def feed(self, element: StreamElement) -> List[Match]:
        """Process one element; returns matches whose order is now final."""
        for match in self.engine.feed(element):
            heapq.heappush(
                self._held, (match.end_ts, match.start_ts, match.key(), match)
            )
        return self._release(self.engine.clock.horizon())

    def feed_many(self, elements: Iterable[StreamElement]) -> List[Match]:
        released: List[Match] = []
        for element in elements:
            released.extend(self.feed(element))
        return released

    def close(self) -> List[Match]:
        """Flush the engine and everything held, in order."""
        for match in self.engine.close():
            heapq.heappush(
                self._held, (match.end_ts, match.start_ts, match.key(), match)
            )
        released: List[Match] = []
        while self._held:
            released.append(heapq.heappop(self._held)[3])
        self.delivered.extend(released)
        return released

    def run(self, elements: Iterable[StreamElement]) -> List[Match]:
        released = self.feed_many(elements)
        released.extend(self.close())
        return released

    # -- internals ------------------------------------------------------------------

    def _release(self, horizon: int) -> List[Match]:
        released: List[Match] = []
        while self._held and self._held[0][0] <= horizon:
            released.append(heapq.heappop(self._held)[3])
        self.delivered.extend(released)
        return released

    # -- introspection ----------------------------------------------------------------

    def held(self) -> int:
        """Matches detected but not yet releasable in order."""
        return len(self._held)

    def is_ordered(self) -> bool:
        """Sanity: delivered matches are non-decreasing in end timestamp."""
        return all(
            a.end_ts <= b.end_ts
            for a, b in zip(self.delivered, self.delivered[1:])
        )
