"""Query plans: the full operator pipeline around an engine.

The paper's algebra is  SS → SC → selection → transformation : the
engine (sequence scan + construction, with purge and negation inside)
produces matches; an optional *post-selection* filters them with
arbitrary conditions the ``WHERE`` stage could not express (e.g.
aggregates over the whole match); a *transformation* packages survivors
as composite events.

:class:`QueryPlan` wires one engine through those stages and exposes a
stream-in / composite-events-out surface.  :class:`MultiQueryPlan`
fans one input stream out to several plans — the usual deployment shape
(many registered pattern queries over one event bus).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence

from repro.core.engine import Engine
from repro.core.errors import ConfigurationError
from repro.core.event import Event, StreamElement
from repro.core.pattern import Match
from repro.core.transformation import CompositeEventFactory

MatchFilter = Callable[[Match], bool]


class QueryPlan:
    """engine → post-selection → transformation, as one feedable unit."""

    def __init__(
        self,
        engine: Engine,
        selection: Optional[MatchFilter] = None,
        transformation: Optional[CompositeEventFactory] = None,
    ):
        if selection is not None and not callable(selection):
            raise ConfigurationError("selection must be callable (Match -> bool)")
        self.engine = engine
        self.selection = selection
        self.transformation = transformation
        self.matches: List[Match] = []
        self.composites: List[Event] = []

    def feed(self, element: StreamElement) -> List[Event]:
        """Process one element; returns composite events produced now.

        When no transformation is configured the returned list is empty
        and results accumulate in :attr:`matches` only.
        """
        return self._absorb(self.engine.feed(element))

    def feed_many(self, elements: Iterable[StreamElement]) -> List[Event]:
        produced: List[Event] = []
        for element in elements:
            produced.extend(self.feed(element))
        return produced

    def close(self) -> List[Event]:
        """Flush the engine; returns composites from final emissions."""
        return self._absorb(self.engine.close())

    def run(self, elements: Iterable[StreamElement]) -> List[Event]:
        produced = self.feed_many(elements)
        produced.extend(self.close())
        return produced

    def _absorb(self, emitted: Sequence[Match]) -> List[Event]:
        """Record *emitted* and, as their receiver, take them from the engine."""
        if emitted:
            self.engine.take_emissions()
        produced: List[Event] = []
        for match in emitted:
            if self.selection is not None and not self.selection(match):
                continue
            self.matches.append(match)
            if self.transformation is not None:
                produced.append(self.transformation.build(match))
        self.composites.extend(produced)
        return produced


class MultiQueryPlan:
    """Broadcast one input stream to several :class:`QueryPlan` instances."""

    def __init__(self, plans: Sequence[QueryPlan]):
        if not plans:
            raise ConfigurationError("MultiQueryPlan needs at least one plan")
        self.plans = list(plans)

    def feed(self, element: StreamElement) -> List[Event]:
        produced: List[Event] = []
        for plan in self.plans:
            produced.extend(plan.feed(element))
        return produced

    def feed_many(self, elements: Iterable[StreamElement]) -> List[Event]:
        produced: List[Event] = []
        for element in elements:
            produced.extend(self.feed(element))
        return produced

    def close(self) -> List[Event]:
        produced: List[Event] = []
        for plan in self.plans:
            produced.extend(plan.close())
        return produced

    def run(self, elements: Iterable[StreamElement]) -> List[Event]:
        produced = self.feed_many(elements)
        produced.extend(self.close())
        return produced
