"""Columnar (struct-of-arrays) event batches: a lossless codec.

An :class:`EventBatch` stores N events as parallel columns — one
``ts`` array, one ``eid`` array, one type-code array over a small
type table, and one value column per attribute name with a presence
mask — instead of N :class:`~repro.core.event.Event` objects.  Encoding
a batch serialises a handful of flat arrays and lists instead of N
constructor-rebuild tuples, which makes it the compact serialised form
of an event list; ``Engine.feed_colbatch`` accepts one directly.

The representation is **lossless**: ``to_events(from_events(evs))``
reproduces the original events — identity (``eid``), duplicate
timestamps, missing attributes, heterogeneous and unhashable attribute
values all survive the round trip.  Timestamps and eids use compact
``array('q')`` storage when every value is a plain machine-size int
and fall back to plain lists otherwise (forged events with ``bool`` or
big-int timestamps keep their exact values; the engines' admission
screens still reject them downstream exactly as they would per-event).
"""

from __future__ import annotations

import pickle
from array import array
from typing import Dict, Iterable, List, Tuple

from repro.core.errors import StreamError
from repro.core.event import Event, screened_event

#: Bump when the serialised column layout changes incompatibly.
BATCH_FORMAT = 2

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

#: ``(values, present)`` — ``present`` is a bytearray mask (1 = the row
#: has this attribute; ``values`` holds ``None`` at absent rows).
AttrColumn = Tuple[list, bytearray]


def _pack_ints(values: list):
    """``array('q')`` when every value is a plain in-range int, else the list.

    ``type(v) is int`` (not ``isinstance``) keeps ``bool`` out: an
    ``array`` would silently coerce ``True`` to ``1`` and break the
    exact round trip the codec promises.
    """
    for value in values:
        if type(value) is not int or not (_INT64_MIN <= value <= _INT64_MAX):
            return values
    return array("q", values)


class EventBatch:
    """N events as parallel columns; see the module docstring.

    Construct through :meth:`from_events` or :meth:`from_bytes` — the
    raw constructor trusts its arguments.
    """

    __slots__ = ("length", "ts", "eids", "codes", "type_table", "columns")

    def __init__(
        self,
        length: int,
        ts,
        eids,
        codes,
        type_table: Tuple[str, ...],
        columns: Dict[str, AttrColumn],
    ):
        self.length = length
        self.ts = ts
        self.eids = eids
        self.codes = codes
        self.type_table = type_table
        self.columns = columns

    def __len__(self) -> int:
        return self.length

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "EventBatch":
        """Columnarise *events* (losslessly; order preserved)."""
        ts: List[int] = []
        eids: List[int] = []
        codes: List[int] = []
        types: List[str] = []
        type_index: Dict[str, int] = {}
        columns: Dict[str, AttrColumn] = {}
        row = 0
        for event in events:
            if not isinstance(event, Event):
                raise StreamError(
                    f"EventBatch holds events only, got {type(event).__name__} "
                    "(punctuations travel out of band)"
                )
            etype = event.etype
            code = type_index.get(etype)
            if code is None:
                code = type_index[etype] = len(types)
                types.append(etype)
            ts.append(event.ts)
            eids.append(event.eid)
            codes.append(code)
            for name, value in event._attrs.items():
                column = columns.get(name)
                if column is None:
                    column = columns[name] = ([None] * row, bytearray(row))
                column[0].append(value)
                column[1].append(1)
            for column in columns.values():
                if len(column[1]) <= row:
                    column[0].append(None)
                    column[1].append(0)
            row += 1
        return cls(
            row, _pack_ints(ts), _pack_ints(eids), _pack_ints(codes),
            tuple(types), columns,
        )

    def to_events(self) -> List[Event]:
        """Materialise every row, in order, with its original identity."""
        table, codes, ts, eids = self.type_table, self.codes, self.ts, self.eids
        columns = [
            (name, values, present)
            for name, (values, present) in self.columns.items()
        ]
        events = []
        for i in range(self.length):
            attrs = {}
            for name, values, present in columns:
                if present[i]:
                    attrs[name] = values[i]
            # Not through the constructor: forged rows (a non-int ts, kept
            # losslessly by the list fallback) round-trip instead of raising
            # here, and the engines' admission screens judge them as they
            # judge a fed object.
            events.append(screened_event(table[codes[i]], ts[i], attrs, eids[i]))
        return events

    # -- codec ---------------------------------------------------------------------

    def _state(self) -> tuple:
        return (
            BATCH_FORMAT,
            self.length,
            self.ts,
            self.eids,
            self.codes,
            self.type_table,
            [
                (name, values, bytes(present))
                for name, (values, present) in self.columns.items()
            ],
        )

    @classmethod
    def _from_state(cls, state: tuple) -> "EventBatch":
        fmt, length, ts, eids, codes, table, columns = state
        if fmt != BATCH_FORMAT:
            raise StreamError(
                f"event-batch format {fmt!r} is not supported "
                f"(this build reads format {BATCH_FORMAT})"
            )
        return cls(
            length, ts, eids, codes, tuple(table),
            {name: (values, bytearray(present)) for name, values, present in columns},
        )

    def __reduce__(self):
        # Pickle through the compact state tuple so the cost is the
        # codec's, not per-slot.
        return (EventBatch._from_state, (self._state(),))

    def to_bytes(self) -> bytes:
        """Compact byte encoding."""
        return pickle.dumps(self._state(), protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "EventBatch":
        """Inverse of :meth:`to_bytes`; anything else is a :class:`StreamError`."""
        try:
            state = pickle.loads(blob)
        except Exception as exc:
            raise StreamError(f"event-batch blob is not readable: {exc}") from exc
        if not isinstance(state, tuple) or len(state) != 7:
            raise StreamError("event-batch blob has an unexpected shape")
        return cls._from_state(state)

    def __repr__(self) -> str:
        return (
            f"EventBatch(n={self.length}, types={len(self.type_table)}, "
            f"attrs={sorted(self.columns)})"
        )
