"""Disorder models: turn an in-order stream into a realistic arrival order.

The paper attributes out-of-order arrival to *network latency* and
*machine failure*.  This module provides logical-level disorder
injectors parameterised the way the experiments need (disorder **rate**
— what fraction of events arrive out of position — and disorder
**extent** — how far they are displaced).  For physically-motivated
disorder, :func:`star_arrival` carries per-source streams over a
one-hop star network with link delay and node outages, and reports
each event's arrival time at the sink.

All models are deterministic under a seed, preserve the event set
exactly (disorder never drops or duplicates), and report the *actual*
disorder statistics of the permutation they produced, because a
sampled disorder rate of 0.2 rarely lands on exactly 20%.
"""

from __future__ import annotations

import bisect
import random
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.core.event import Event


class DisorderStats:
    """Measured properties of an arrival permutation."""

    __slots__ = ("total", "displaced", "max_delay", "mean_delay")

    def __init__(self, total: int, displaced: int, max_delay: int, mean_delay: float):
        self.total = total
        self.displaced = displaced
        self.max_delay = max_delay
        self.mean_delay = mean_delay

    @property
    def rate(self) -> float:
        """Fraction of events that arrived after a younger event."""
        return self.displaced / self.total if self.total else 0.0

    def __repr__(self) -> str:
        return (
            f"DisorderStats(rate={self.rate:.3f}, max_delay={self.max_delay}, "
            f"mean_delay={self.mean_delay:.2f}, n={self.total})"
        )


def measure_disorder(arrival: List[Event]) -> DisorderStats:
    """Compute disorder statistics of an arrival sequence.

    An event is *displaced* when some younger-timestamped event arrives
    before it; its *delay* is ``max_ts_seen_before_it - its_ts``
    (clamped at zero) — exactly the quantity the disorder bound K must
    dominate for the K promise to hold.
    """
    displaced = 0
    max_delay = 0
    total_delay = 0
    max_seen = -1
    for event in arrival:
        if event.ts < max_seen:
            displaced += 1
            delay = max_seen - event.ts
            total_delay += delay
            if delay > max_delay:
                max_delay = delay
        if event.ts > max_seen:
            max_seen = event.ts
    n = len(arrival)
    return DisorderStats(n, displaced, max_delay, total_delay / n if n else 0.0)


def required_k(arrival: List[Event]) -> int:
    """Smallest disorder bound K under which no event in *arrival* is late."""
    return measure_disorder(arrival).max_delay


class DelayModel:
    """Base class: maps an in-order stream to an arrival order."""

    def apply(self, events: Iterable[Event]) -> List[Event]:
        raise NotImplementedError

    def arrange(self, events: Iterable[Event]) -> Tuple[List[Event], DisorderStats]:
        """Apply the model and report measured disorder."""
        arrival = self.apply(events)
        return arrival, measure_disorder(arrival)


class NoDisorder(DelayModel):
    """Identity model: arrival order equals occurrence order."""

    def apply(self, events: Iterable[Event]) -> List[Event]:
        return list(events)


class RandomDelayModel(DelayModel):
    """Each event independently suffers a random arrival delay.

    With probability *rate* an event's arrival position is delayed by a
    uniform ``[1, max_delay]`` occurrence-time offset; the arrival order
    is the sort by ``ts + delay`` (stable on ties).  This is the
    standard "lag model" of the out-of-order literature: it produces
    both the disorder rate and extent axes the experiments sweep.
    """

    def __init__(self, rate: float, max_delay: int, seed: int = 0):
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(f"rate must be in [0, 1], got {rate}")
        if max_delay < 0:
            raise ConfigurationError(f"max_delay must be >= 0, got {max_delay}")
        self.rate = rate
        self.max_delay = max_delay
        self.seed = seed

    def apply(self, events: Iterable[Event]) -> List[Event]:
        rng = random.Random(self.seed)
        keyed = []
        for index, event in enumerate(events):
            delay = 0
            if self.rate > 0 and self.max_delay > 0 and rng.random() < self.rate:
                delay = rng.randint(1, self.max_delay)
            keyed.append((event.ts + delay, index, event))
        keyed.sort()
        return [event for __, __, event in keyed]


class BurstDropoutModel(DelayModel):
    """Machine-failure disorder: a node buffers during outages, then flushes.

    Mimics the paper's second disorder cause.  The stream is the merge
    of many sources; when one source's node goes down (entered with
    probability *fail_rate* per event, lasting *outage_length* events),
    the share of events belonging to it (*affected*, default one half)
    is buffered while the other sources' events keep flowing; on
    recovery the buffer flushes behind the events that overtook it.
    Produces bursty, heavy-tailed displacement — very different from
    the smooth lag model, and the reason adaptive K estimation (E12)
    earns its keep.
    """

    def __init__(
        self,
        fail_rate: float,
        outage_length: int,
        affected: float = 0.5,
        seed: int = 0,
    ):
        if not 0.0 <= fail_rate <= 1.0:
            raise ConfigurationError(f"fail_rate must be in [0, 1], got {fail_rate}")
        if outage_length < 1:
            raise ConfigurationError(f"outage_length must be >= 1, got {outage_length}")
        if not 0.0 <= affected <= 1.0:
            raise ConfigurationError(f"affected must be in [0, 1], got {affected}")
        self.fail_rate = fail_rate
        self.outage_length = outage_length
        self.affected = affected
        self.seed = seed

    def apply(self, events: Iterable[Event]) -> List[Event]:
        rng = random.Random(self.seed)
        arrival: List[Event] = []
        buffered: List[Event] = []
        remaining_outage = 0
        for event in events:
            if remaining_outage > 0:
                remaining_outage -= 1
                if rng.random() < self.affected:
                    buffered.append(event)
                else:
                    arrival.append(event)
                if remaining_outage == 0:
                    arrival.extend(buffered)
                    buffered.clear()
            else:
                arrival.append(event)
                if rng.random() < self.fail_rate:
                    remaining_outage = self.outage_length
        arrival.extend(buffered)
        return arrival


def star_arrival(
    streams: Mapping[str, Sequence[Event]],
    delay: Tuple[int, int],
    outages: Optional[Mapping[str, Sequence[Tuple[int, int]]]] = None,
    seed: int = 0,
) -> Tuple[List[Event], List[int]]:
    """Deliver per-source streams over a one-hop star: ``(arrival, times)``.

    *streams* maps a source name to its events in occurrence order;
    each event is sent at its ``ts``.  Every link adds a uniform integer
    delay in ``[low, high]`` (a constant delay ``c`` is ``(c, c)``).
    *outages* maps a source name, or ``"sink"``, to disjoint
    ``[start, end)`` intervals during which that node is down: a down
    source holds an event until it recovers, the delay is added after
    that, and a down sink holds the arrival.  A link is FIFO, so an
    event never arrives before its source's previous one; disorder
    comes from crossing sources and from the burst of stale events a
    recovery releases.  Ties at the sink break by ``(source, eid)``.
    """
    low, high = delay
    if not 0 <= low <= high:
        raise ConfigurationError(f"need 0 <= low <= high, got {delay}")
    down: Dict[str, List[Tuple[int, int]]] = {}
    for node, intervals in (outages or {}).items():
        down[node] = sorted(intervals)
        for index, (start, end) in enumerate(down[node]):
            if end <= start:
                raise ConfigurationError(f"empty outage [{start}, {end})")
            if index and start < down[node][index - 1][1]:
                raise ConfigurationError(
                    f"overlapping outage [{start}, {end}) on {node!r}"
                )

    def up_at(node: str, t: int) -> int:
        intervals = down.get(node)
        if intervals:
            index = bisect.bisect_right(intervals, (t, float("inf"))) - 1
            if index >= 0 and intervals[index][0] <= t < intervals[index][1]:
                return intervals[index][1]
        return t

    rng = random.Random(seed)
    delivered = []
    for source in sorted(streams):
        sent = link_free = 0
        for event in streams[source]:
            if event.ts < sent:
                raise ConfigurationError(
                    f"stream at {source!r} not in occurrence order: {event!r}"
                )
            sent = event.ts
            link_free = max(up_at(source, sent) + rng.randint(low, high), link_free)
            delivered.append((up_at("sink", link_free), source, event.eid, event))
    delivered.sort(key=lambda d: d[:3])
    return [d[3] for d in delivered], [d[0] for d in delivered]


def crash_positions(times: Sequence[int], outages: Sequence[Tuple[int, int]]) -> List[int]:
    """Arrival positions at which a node with *outages* dies.

    *times* are the sorted arrival times :func:`star_arrival` returns;
    each outage maps to the first arrival at or after its start, the
    position at which an engine hosted on that node would crash (feed
    the result to ``FaultInjector(crash_at=...)``).  An outage that
    starts after the last arrival yields no position.
    """
    positions = {bisect.bisect_left(times, start) for start, _end in outages}
    return sorted(p for p in positions if p < len(times))
