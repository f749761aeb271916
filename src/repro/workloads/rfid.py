"""RFID supply-chain workload: the paper's lead motivating application.

Models a retail store instrumented with RFID readers, the canonical
CEP scenario (also used by SASE): tagged items move through reader
zones — ``SHELF_READ`` when picked off a shelf, ``COUNTER_READ`` when
scanned at a checkout counter, ``EXIT_READ`` at the door.  The classic
*shoplifting query* detects items picked up and carried out without
ever being checked out::

    PATTERN SEQ(SHELF_READ s, !COUNTER_READ c, EXIT_READ e)
    WHERE   s.tag == e.tag AND c.tag == s.tag
    WITHIN  <dwell window>

The generator simulates *items* (tags) executing randomised trajectories
through the store; a controllable fraction are shoplifted (skip the
counter).  Each reader is a separate source node, so
:func:`repro.streams.star_arrival` can scramble arrival realistically
(readers on flaky wireless uplinks).
Ground-truth shoplifted tags are reported alongside the streams so
end-to-end detection tests don't need the oracle.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Sequence, Set

from repro.core.errors import ConfigurationError
from repro.core.event import Event
from repro.core.parser import parse
from repro.core.pattern import Pattern

SHELF = "SHELF_READ"
COUNTER = "COUNTER_READ"
EXIT = "EXIT_READ"

READERS = (SHELF, COUNTER, EXIT)


def shoplifting_query(within: int = 2000, name: str = "shoplifting") -> Pattern:
    """The paper's shoplifting pattern with the given dwell window."""
    return parse(
        f"PATTERN SEQ({SHELF} s, !{COUNTER} c, {EXIT} e) "
        "WHERE s.tag == e.tag AND c.tag == s.tag "
        f"WITHIN {within}",
        name=name,
    )


def restock_query(within: int = 2000, name: str = "restock") -> Pattern:
    """Items returned to a shelf after checkout (suspicious refund pattern)."""
    return parse(
        f"PATTERN SEQ({COUNTER} c, {SHELF} s) "
        "WHERE c.tag == s.tag "
        f"WITHIN {within}",
        name=name,
    )


class RfidTrace(NamedTuple):
    """Generated store activity."""

    by_reader: Dict[str, List[Event]]  #: per-reader streams, occurrence order
    merged: List[Event]  #: all events in occurrence order
    shoplifted_tags: Set[int]  #: ground-truth tag ids that skipped checkout


class RfidStoreGenerator:
    """Randomised item trajectories through SHELF → (COUNTER) → EXIT.

    Parameters
    ----------
    items:
        Number of distinct tags moving through the store.
    shoplift_rate:
        Fraction of items that skip the counter.
    browse_rate:
        Fraction of items picked up and *reshelved* (a second
        SHELF_READ, no exit) — realistic noise that stresses purging.
    dwell:
        Maximum time an item spends between shelf pick-up and exit;
        queries should use a window of at least this.
    arrival_span:
        Shelf pick-ups are uniform over ``[1, arrival_span]``.
    seed:
        Determinism.
    """

    def __init__(
        self,
        items: int = 500,
        shoplift_rate: float = 0.05,
        browse_rate: float = 0.2,
        dwell: int = 1500,
        arrival_span: int = 50_000,
        seed: int = 0,
    ):
        if items < 0:
            raise ConfigurationError(f"items must be >= 0, got {items}")
        if not 0.0 <= shoplift_rate <= 1.0:
            raise ConfigurationError(f"shoplift_rate must be in [0, 1], got {shoplift_rate}")
        if not 0.0 <= browse_rate <= 1.0 - shoplift_rate:
            raise ConfigurationError(
                "browse_rate must be in [0, 1 - shoplift_rate]"
            )
        if dwell < 3:
            raise ConfigurationError(f"dwell must be >= 3, got {dwell}")
        if arrival_span < 1:
            raise ConfigurationError(f"arrival_span must be >= 1, got {arrival_span}")
        self.items = items
        self.shoplift_rate = shoplift_rate
        self.browse_rate = browse_rate
        self.dwell = dwell
        self.arrival_span = arrival_span
        self.seed = seed

    def generate(self) -> RfidTrace:
        rng = random.Random(self.seed)
        by_reader: Dict[str, List[Event]] = {reader: [] for reader in READERS}
        shoplifted: Set[int] = set()
        for tag in range(1, self.items + 1):
            pick_ts = rng.randint(1, self.arrival_span)
            exit_ts = pick_ts + rng.randint(2, self.dwell - 1)
            attrs = {"tag": tag}
            roll = rng.random()
            by_reader[SHELF].append(Event(SHELF, pick_ts, attrs))
            if roll < self.shoplift_rate:
                # Straight to the exit; never scanned.
                by_reader[EXIT].append(Event(EXIT, exit_ts, attrs))
                shoplifted.add(tag)
            elif roll < self.shoplift_rate + self.browse_rate:
                # Browsed and reshelved; no exit event for the item.
                reshelve_ts = pick_ts + rng.randint(1, self.dwell - 2)
                by_reader[SHELF].append(Event(SHELF, reshelve_ts, attrs))
            else:
                # Honest purchase: counter strictly between pick and exit.
                counter_ts = rng.randint(pick_ts + 1, exit_ts - 1)
                by_reader[COUNTER].append(Event(COUNTER, counter_ts, attrs))
                by_reader[EXIT].append(Event(EXIT, exit_ts, attrs))
        for reader in READERS:
            by_reader[reader].sort(key=lambda e: (e.ts, e.eid))
        merged = sorted(
            (event for events in by_reader.values() for event in events),
            key=lambda e: (e.ts, e.eid),
        )
        return RfidTrace(by_reader, merged, shoplifted)


def detected_tags(matches: Sequence) -> Set[int]:
    """Tag ids reported by shoplifting-query matches."""
    return {match.events[0]["tag"] for match in matches}
