"""Event model: the primitive elements flowing through every stream.

The paper distinguishes two notions of time:

* **occurrence time** (``ts``) — assigned by the event source when the
  real-world occurrence happens; pattern semantics (``SEQ`` ordering,
  ``WITHIN`` windows) are defined exclusively over occurrence time.
* **arrival order** — the order in which the processing engine receives
  events.  With in-order delivery arrival order and occurrence order
  coincide; network latency and machine failure make them diverge,
  which is precisely the problem the paper addresses.

An :class:`Event` carries its occurrence timestamp and attributes; the
engine assigns an *arrival sequence number* on ingestion (recorded on
the engine-side wrapper, see ``repro.core.stacks``), never mutating the
event itself.  Events are immutable value objects so they can be shared
freely between stacks, match buffers and result tuples.

Besides plain events, streams can carry :class:`Punctuation` elements —
assertions that no event with occurrence time ``<= ts`` will arrive in
the future.  Punctuations subsume heartbeats and let the disorder bound
K be communicated in-band.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.core.errors import StreamError

_EVENT_IDS = itertools.count(1)


def _next_event_id() -> int:
    return next(_EVENT_IDS)


class Event:
    """An immutable event occurrence.

    Parameters
    ----------
    etype:
        Event type name, e.g. ``"SHELF_READ"``.  Types are plain strings;
        pattern steps match on string equality.
    ts:
        Occurrence timestamp, a non-negative integer.  The library uses
        integer time throughout (the paper's model is discrete time);
        callers with real-valued clocks should scale to integers.
    attrs:
        Attribute mapping used by ``WHERE`` predicates.  Stored as an
        immutable snapshot.
    eid:
        Optional explicit identity.  Auto-assigned when omitted.  Event
        identity (not object identity) is what result-set comparisons
        use, so replaying a recorded trace reproduces identical results.

    Examples
    --------
    >>> e = Event("A", 7, {"x": 1})
    >>> e.etype, e.ts, e["x"]
    ('A', 7, 1)
    """

    __slots__ = ("etype", "ts", "eid", "_attrs", "_hash")

    def __init__(
        self,
        etype: str,
        ts: int,
        attrs: Optional[Mapping[str, Any]] = None,
        eid: Optional[int] = None,
    ):
        if not isinstance(etype, str) or not etype:
            raise StreamError(f"event type must be a non-empty string, got {etype!r}")
        if not isinstance(ts, int) or isinstance(ts, bool):
            raise StreamError(f"occurrence timestamp must be an int, got {ts!r}")
        if ts < 0:
            raise StreamError(f"occurrence timestamp must be >= 0, got {ts}")
        object.__setattr__(self, "etype", etype)
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "eid", _next_event_id() if eid is None else eid)
        object.__setattr__(self, "_attrs", dict(attrs) if attrs else {})

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Event is immutable")

    def __reduce__(self):
        # Default slot-state pickling would trip the immutability guard
        # on restore; rebuild through the constructor instead, keeping
        # the explicit eid so identity survives the round trip (a restored
        # snapshot's matches compare equal by event identity).
        return (Event, (self.etype, self.ts, self._attrs, self.eid))

    @property
    def attrs(self) -> Dict[str, Any]:
        """A copy of the attribute mapping (mutating it does not affect the event)."""
        return dict(self._attrs)

    def __getitem__(self, key: str) -> Any:
        try:
            return self._attrs[key]
        except KeyError:
            raise KeyError(
                f"event {self.etype}@{self.ts} has no attribute {key!r}; "
                f"available: {sorted(self._attrs)}"
            ) from None

    def get(self, key: str, default: Any = None) -> Any:
        """Attribute lookup with a default, mirroring ``dict.get``."""
        return self._attrs.get(key, default)

    def __contains__(self, key: str) -> bool:
        return key in self._attrs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (
            self.eid == other.eid
            and self.etype == other.etype
            and self.ts == other.ts
        )

    def __hash__(self) -> int:
        # Computed on first use: most events are never hashed.
        try:
            return self._hash
        except AttributeError:
            value = hash((self.etype, self.ts, self.eid))
            _set_hash(self, value)
            return value

    def __repr__(self) -> str:
        if self._attrs:
            inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self._attrs.items()))
            return f"Event({self.etype}@{self.ts} #{self.eid} {{{inner}}})"
        return f"Event({self.etype}@{self.ts} #{self.eid})"

    def key(self) -> Tuple[str, int, int]:
        """Stable identity triple used in serialised traces."""
        return (self.etype, self.ts, self.eid)


_set_etype, _set_ts, _set_eid, _set_attrs, _set_hash = (
    Event.__dict__[name].__set__ for name in Event.__slots__
)


def screened_event(etype: str, ts: int, attrs: Dict[str, Any], eid: int) -> Event:
    """An :class:`Event` from fields the caller has already checked: no
    re-validation, slots set through their descriptors, and *attrs* stored
    as given (a caller that does not own the dict passes a copy).  Like the
    constructor it leaves the hash to the first ``hash()``, which raises
    then if a forged *ts* is unhashable.
    """
    event = object.__new__(Event)
    _set_etype(event, etype)
    _set_ts(event, ts)
    _set_eid(event, eid)
    _set_attrs(event, attrs)
    return event


class Punctuation:
    """An in-band assertion: no event with ``ts <= self.ts`` is still in flight.

    Engines use punctuations to advance their purge clock beyond what
    the K-slack promise alone allows.  A punctuation never matches a
    pattern step.
    """

    __slots__ = ("ts",)

    def __init__(self, ts: int):
        if not isinstance(ts, int) or isinstance(ts, bool) or ts < 0:
            raise StreamError(f"punctuation timestamp must be an int >= 0, got {ts!r}")
        object.__setattr__(self, "ts", ts)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Punctuation is immutable")

    def __reduce__(self):
        # See Event.__reduce__: restore via the constructor, not slot state.
        return (Punctuation, (self.ts,))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Punctuation):
            return NotImplemented
        return self.ts == other.ts

    def __hash__(self) -> int:
        return hash(("punctuation", self.ts))

    def __repr__(self) -> str:
        return f"Punctuation(<= {self.ts})"


StreamElement = Union[Event, Punctuation]


def is_event(element: StreamElement) -> bool:
    """True when *element* is a data event (not a punctuation)."""
    return isinstance(element, Event)


def malformed_reason(element: object) -> Optional[str]:
    """Why *element* must be rejected at admission, or None when well-formed.

    :class:`Event` validates at construction, but elements arriving from
    the network, from deserialised traces, or forged through
    ``object.__new__`` (the fault-injection harness does exactly this)
    can carry a NaN/float/negative timestamp or a missing type.  Such an
    element would silently corrupt timestamp-ordered structures — heap
    order in reorder buffers, bisect positions in the sorted stacks — so
    engines screen every admission with this check.

    Note ``type(ts) is not int`` rather than ``isinstance``: it rejects
    ``bool`` and every float (NaN included) in one comparison.
    """
    if isinstance(element, Event):
        ts = element.ts
        if type(ts) is not int:
            return f"occurrence timestamp must be an int, got {ts!r}"
        if ts < 0:
            return f"occurrence timestamp must be >= 0, got {ts}"
        etype = element.etype
        if not isinstance(etype, str) or not etype:
            return f"event type must be a non-empty string, got {etype!r}"
        return None
    if isinstance(element, Punctuation):
        ts = element.ts
        if type(ts) is not int or ts < 0:
            return f"punctuation timestamp must be an int >= 0, got {ts!r}"
        return None
    return f"not a stream element: {type(element).__name__}"


def admission_error(element: object) -> StreamError:
    """The :class:`StreamError` an engine raises for a malformed element."""
    return StreamError(
        f"malformed stream element rejected at admission: "
        f"{malformed_reason(element)}"
    )


def sort_by_occurrence(events: Iterable[Event]) -> list:
    """Return *events* sorted by occurrence time, ties broken by identity.

    This is the canonical total order used by the offline oracle: the
    (ts, eid) pair is unique per event so the sort is deterministic
    regardless of arrival permutation.
    """
    return sorted(events, key=lambda e: (e.ts, e.eid))
