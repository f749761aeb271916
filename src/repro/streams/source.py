"""Event sources: deterministic generators of in-order event streams.

Every generator in the library is seeded and fully deterministic, so
benchmarks and tests are reproducible bit-for-bit.  Sources produce
events in **occurrence order**; disorder is applied afterwards by the
models in ``repro.streams.disorder``, or physically by its star
network (:func:`repro.streams.disorder.star_arrival`) — mirroring
reality, where sources emit in order and the transport scrambles.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.core.errors import ConfigurationError
from repro.core.event import Event

AttrMaker = Callable[[random.Random, int], Dict[str, Any]]


class EventSource:
    """Base class: an iterable, restartable producer of in-order events.

    A subclass defines ``events()``, yielding events in non-decreasing
    occurrence-time order.
    """

    def take(self, count: int) -> List[Event]:
        """Materialise the first *count* events."""
        result: List[Event] = []
        for event in self.events():
            result.append(event)
            if len(result) >= count:
                break
        return result


class SyntheticSource(EventSource):
    """Uniform-random typed events on a regular or jittered time grid.

    Parameters
    ----------
    types:
        Event type alphabet to draw from (uniformly, or per *weights*).
    count:
        Number of events to produce.
    seed:
        RNG seed; two sources with equal parameters yield equal streams.
    interval:
        Mean occurrence-time gap between consecutive events.
    jitter:
        When > 0, the gap is uniform in ``[max(interval - jitter, 0),
        interval + jitter]``; gaps of zero produce timestamp ties,
        exercising the engines' tie handling.
    attr_maker:
        Callable ``(rng, ts) -> attrs`` for event attributes; default
        gives each event an ``x`` attribute uniform in ``[0, 9]``.
    weights:
        Optional per-type selection weights (parallel to *types*).
    """

    def __init__(
        self,
        types: Sequence[str],
        count: int,
        seed: int = 0,
        interval: int = 1,
        jitter: int = 0,
        attr_maker: Optional[AttrMaker] = None,
        weights: Optional[Sequence[float]] = None,
    ):
        if not types:
            raise ConfigurationError("SyntheticSource needs a non-empty type alphabet")
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        if interval < 0 or jitter < 0:
            raise ConfigurationError("interval and jitter must be >= 0")
        if weights is not None and len(weights) != len(types):
            raise ConfigurationError("weights must parallel types")
        self.types = list(types)
        self.count = count
        self.seed = seed
        self.interval = interval
        self.jitter = jitter
        self.attr_maker = attr_maker or (lambda rng, ts: {"x": rng.randint(0, 9)})
        self.weights = list(weights) if weights is not None else None

    def events(self) -> Iterator[Event]:
        rng = random.Random(self.seed)
        ts = 0
        for __ in range(self.count):
            gap = self.interval
            if self.jitter:
                gap = rng.randint(max(self.interval - self.jitter, 0), self.interval + self.jitter)
            ts += gap
            if self.weights is not None:
                etype = rng.choices(self.types, weights=self.weights, k=1)[0]
            else:
                etype = rng.choice(self.types)
            yield Event(etype, ts, self.attr_maker(rng, ts))
