"""Active Instance Stacks (AIS): the engine's per-step state.

The SASE architecture keeps, for every positive pattern step, a stack
of *active instances* — events of that step's type that passed the
per-step predicates and may still contribute to future matches.  With
in-order arrival the stack is naturally sorted by occurrence time and
new instances are appended.  The paper's key data-structure change is
to keep the stacks **sorted by occurrence time under out-of-order
insertion**: a late event is spliced into its timestamp position so
that sequence construction can keep using ordered-range scans
(binary-searched) regardless of arrival order.

Each stored :class:`Instance` records its **arrival sequence number**.
Construction uses it for exactly-once output: a combination is emitted
only by the arrival of its latest-arriving member (see
``repro.core.construction``).

A parallel :class:`NegativeStore` holds events of negated types, also
ts-sorted, consulted when a pending match's negation bracket seals.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.event import Event

_INF = float("inf")
_NO_CANDIDATES: Tuple = ()


class Instance:
    """An event admitted to a stack, tagged with its arrival sequence."""

    __slots__ = ("event", "arrival")

    def __init__(self, event: Event, arrival: int):
        self.event = event
        self.arrival = arrival

    @property
    def ts(self) -> int:
        return self.event.ts

    def sort_key(self) -> Tuple[int, int]:
        """Total order used inside stacks: occurrence time, then identity."""
        return (self.event.ts, self.event.eid)

    def __repr__(self) -> str:
        return f"Instance({self.event!r}, arrival={self.arrival})"


class SortedStack:
    """A timestamp-sorted sequence of instances with range queries.

    Despite the historical name "stack" (from SASE, where in-order
    arrival makes it append-only), this structure supports O(log n)
    positional insertion for late events and O(log n + m) range
    extraction, which is what out-of-order construction needs.

    When *indexed_attrs* names attributes (chosen by the construction
    plan from the pattern's equality joins), the stack additionally
    maintains one **equality index** per attribute: a hash map from
    attribute value to a ts-sorted posting list of the instances
    carrying that value.  :meth:`equality_candidates` then serves an
    equi-join lookup as a hash probe plus a bisected window clamp
    instead of a full range scan.  Posting lists are kept consistent
    under splice insertion, purging, shedding and ``clear``; like
    ``_keys`` they are a derived cache rebuilt on restore.  An instance
    whose indexed attribute is missing or unhashable permanently
    disables that attribute's index on this stack (lookups return
    ``None``, callers fall back to the range scan), so the index never
    changes results for exotic attribute values.
    """

    __slots__ = (
        "step_index",
        "_instances",
        "_keys",
        "inserted",
        "purged",
        "indexed_attrs",
        "_postings",
        "_index_disabled",
    )

    def __init__(self, step_index: int, indexed_attrs: Sequence[str] = ()):
        self.step_index = step_index
        self._instances: List[Instance] = []
        # Parallel (ts, eid) list for bisect; derived from _instances and
        # rebuilt by restore_state, so snapshots never carry it.
        self._keys: List[Tuple[int, int]] = []
        self.indexed_attrs: Tuple[str, ...] = tuple(indexed_attrs)
        # Equality index: attr -> value -> parallel (keys, instances)
        # posting lists in (ts, eid) order.  Derived from _instances like
        # _keys (rebuilt by restore_state, never serialised).
        self._postings: Dict[str, Dict[Any, Tuple[List[Tuple[int, int]], List[Instance]]]] = {
            name: {} for name in self.indexed_attrs
        }
        # Attributes whose index has been disabled by an unindexable
        # instance.  Sticky and snapshotted: a restored engine must keep
        # falling back exactly where the live one did, even if the
        # offending instance has since been purged.
        self._index_disabled: set = set()
        self.inserted = 0
        self.purged = 0

    def __len__(self) -> int:
        return len(self._instances)

    def __iter__(self) -> Iterator[Instance]:
        return iter(self._instances)

    def insert(self, instance: Instance) -> int:
        """Insert at the timestamp-sorted position; returns the index.

        Appends in O(1) for the common in-order case, splices via
        binary search otherwise.
        """
        event = instance.event
        key = (event.ts, event.eid)  # Instance.sort_key, inlined
        keys = self._keys
        if not keys or key >= keys[-1]:
            index = len(keys)
            keys.append(key)
            self._instances.append(instance)
        else:
            index = bisect_right(keys, key)
            keys.insert(index, key)
            self._instances.insert(index, instance)
        if self.indexed_attrs:
            self._index_insert(instance, key)
        self.inserted += 1
        return index

    # -- equality index ---------------------------------------------------------

    def _index_insert(self, instance: Instance, key: Tuple[int, int]) -> None:
        attrs = instance.event._attrs
        disabled = self._index_disabled
        for name in self._postings:
            if name in disabled:
                continue
            postings = self._postings[name]
            try:
                value = attrs[name]
                entry = postings.get(value)
            except (KeyError, TypeError):
                # Missing or unhashable value: this attribute's index can
                # no longer answer for this stack.  Drop its postings and
                # fall back to range scans from here on.
                disabled.add(name)
                postings.clear()
                continue
            if entry is None:
                postings[value] = ([key], [instance])
            else:
                keys, instances = entry
                if key >= keys[-1]:
                    keys.append(key)
                    instances.append(instance)
                else:
                    at = bisect_right(keys, key)
                    keys.insert(at, key)
                    instances.insert(at, instance)

    def _index_drop_prefix(self, cut: int) -> None:
        """Remove the oldest *cut* instances from every posting list.

        Both purge and shedding remove a global ``(ts, eid)`` prefix, so
        the removals form a prefix of each posting list too.
        """
        disabled = self._index_disabled
        if cut == 1:
            # The common purge: one instance, the head of its posting list.
            attrs = self._instances[0].event._attrs
            for name, postings in self._postings.items():
                if name in disabled:
                    continue
                value = attrs[name]
                keys, instances = postings[value]
                if len(keys) == 1:
                    del postings[value]
                else:
                    del keys[0]
                    del instances[0]
            return
        removed = self._instances[:cut]
        for name in self._postings:
            if name in disabled:
                continue
            postings = self._postings[name]
            counts: Dict[Any, int] = {}
            for instance in removed:
                value = instance.event._attrs[name]
                counts[value] = counts.get(value, 0) + 1
            for value, count in counts.items():
                keys, instances = postings[value]
                if count >= len(keys):
                    del postings[value]
                else:
                    del keys[:count]
                    del instances[:count]

    def equality_candidates(
        self, name: str, value: Any, ts: int, max_ts: int
    ) -> Optional[Sequence[Instance]]:
        """Instances with ``event[name] == value`` and ``ts < instance.ts <= max_ts``.

        The indexed analogue of :meth:`range_after`: a hash probe on the
        attribute's posting map, then a bisected window clamp.  Returns
        ``None`` when the index cannot answer — the attribute is not
        indexed here, its index was disabled by an unindexable instance,
        or the probe value itself is unhashable — in which case the
        caller must fall back to the range scan.
        """
        if name in self._index_disabled:
            return None
        postings = self._postings.get(name)
        if postings is None:
            return None
        try:
            if value != value:
                # NaN-like probe: ``==`` is never true for it, but dict
                # lookup's identity shortcut could still hit its own
                # bucket.  The equality predicate would reject every
                # candidate, so the correct answer is the empty set.
                return _NO_CANDIDATES
            entry = postings.get(value)
        except (TypeError, ValueError):
            return None
        if entry is None:
            return _NO_CANDIDATES
        keys, instances = entry
        lo = bisect_right(keys, (ts, _INF))
        hi = bisect_right(keys, (max_ts, _INF))
        return instances[lo:hi]

    # -- range queries --------------------------------------------------------

    def range_after(self, ts: int, max_ts: Optional[int] = None) -> List[Instance]:
        """Instances with ``ts < instance.ts <= max_ts`` (max unbounded if None)."""
        lo = bisect_right(self._keys, (ts, float("inf")))
        if max_ts is None:
            return self._instances[lo:]
        hi = bisect_right(self._keys, (max_ts, float("inf")))
        return self._instances[lo:hi]

    def min_ts(self) -> Optional[int]:
        """Smallest occurrence time stored, or None when empty."""
        return self._keys[0][0] if self._keys else None

    def max_ts(self) -> Optional[int]:
        """Largest occurrence time stored, or None when empty."""
        return self._keys[-1][0] if self._keys else None

    # -- purging ---------------------------------------------------------------

    def purge_through(self, ts: int) -> int:
        """Drop every instance with occurrence time ``<= ts``; returns count.

        Instances are ts-sorted so this is a single prefix cut.
        """
        cut = bisect_right(self._keys, (ts, _INF))
        if cut:
            if self.indexed_attrs:
                self._index_drop_prefix(cut)
            del self._instances[:cut]
            del self._keys[:cut]
            self.purged += cut
        return cut

    def drop_oldest(self, count: int) -> int:
        """Shed up to *count* oldest instances (load shedding); returns dropped.

        Unlike :meth:`purge_through` this is *lossy* — the dropped
        instances were not provably useless — so the caller accounts for
        it in ``stats.events_shed``, not the purge counters.
        """
        cut = min(count, len(self._instances))
        if cut > 0:
            if self.indexed_attrs:
                self._index_drop_prefix(cut)
            del self._instances[:cut]
            del self._keys[:cut]
        return cut

    # -- non-destructive previews (observability) -------------------------------

    def events_through(self, ts: int) -> List[Event]:
        """The events :meth:`purge_through` *would* drop at *ts*, unchanged."""
        cut = bisect_right(self._keys, (ts, float("inf")))
        return [instance.event for instance in self._instances[:cut]]

    def oldest_events(self, count: int) -> List[Event]:
        """The events :meth:`drop_oldest` *would* shed, unchanged."""
        return [instance.event for instance in self._instances[:count]]

    def clear(self) -> None:
        self.purged += len(self._instances)
        self._instances.clear()
        self._keys.clear()
        for postings in self._postings.values():
            postings.clear()

    # -- checkpointing ---------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Stored instances plus lifetime counters, for engine checkpoints."""
        return {
            "instances": [(i.event, i.arrival) for i in self._instances],
            "inserted": self.inserted,
            "purged": self.purged,
            "index_disabled": sorted(self._index_disabled),
        }

    def restore_state(self, state: dict) -> None:
        # In place: callers hold the lists for the stack's lifetime.
        self._instances[:] = [
            Instance(event, arrival) for event, arrival in state["instances"]
        ]
        self._keys[:] = [instance.sort_key() for instance in self._instances]
        self.inserted = state["inserted"]
        self.purged = state["purged"]
        # Disabled-index markers are real state (sticky even after the
        # offending instance is purged); the posting lists themselves are
        # derived and rebuilt from the restored instances.
        self._index_disabled = set(state.get("index_disabled", ()))
        if self.indexed_attrs:
            self._postings = {name: {} for name in self.indexed_attrs}
            for instance, key in zip(self._instances, self._keys):
                self._index_insert(instance, key)


class StackSet:
    """The full AIS: one :class:`SortedStack` per positive pattern step."""

    __slots__ = ("stacks",)

    def __init__(
        self,
        length: int,
        indexed_attrs: Optional[Sequence[Sequence[str]]] = None,
    ):
        if indexed_attrs is None:
            indexed_attrs = [()] * length
        self.stacks: List[SortedStack] = [
            SortedStack(i, indexed_attrs=indexed_attrs[i]) for i in range(length)
        ]

    def __getitem__(self, index: int) -> SortedStack:
        return self.stacks[index]

    def __len__(self) -> int:
        return len(self.stacks)

    def __iter__(self) -> Iterator[SortedStack]:
        return iter(self.stacks)

    def size(self) -> int:
        """Total instances currently held across all stacks."""
        return sum(len(stack) for stack in self.stacks)

    def sizes(self) -> List[int]:
        """Per-stack instance counts (diagnostics and memory experiments)."""
        return [len(stack) for stack in self.stacks]

    def snapshot_state(self) -> list:
        return [stack.snapshot_state() for stack in self.stacks]

    def restore_state(self, state: list) -> None:
        for stack, stack_state in zip(self.stacks, state):
            stack.restore_state(stack_state)


class NegativeStore:
    """Timestamp-sorted stores of negated-type events, one per type.

    Only consulted at *seal time* (conservative negation, see
    ``repro.core.negation``), so it never drives construction — it just
    needs ordered containment queries and prefix purging.
    """

    __slots__ = ("_by_type", "inserted", "purged")

    def __init__(self, types: Iterable[str]):
        self._by_type: Dict[str, Tuple[List[Tuple[int, int]], List[Event]]] = {
            t: ([], []) for t in types
        }
        self.inserted = 0
        self.purged = 0

    def relevant(self, etype: str) -> bool:
        return etype in self._by_type

    def insert(self, event: Event) -> None:
        keys, events = self._by_type[event.etype]
        key = (event.ts, event.eid)
        if not keys or key >= keys[-1]:
            keys.append(key)
            events.append(event)
        else:
            index = bisect_right(keys, key)
            keys.insert(index, key)
            events.insert(index, event)
        self.inserted += 1

    def between(self, etype: str, lo: int, hi: int) -> List[Event]:
        """Events of *etype* with ``lo < ts < hi`` (exclusive bounds)."""
        if etype not in self._by_type:
            return []
        keys, events = self._by_type[etype]
        start = bisect_right(keys, (lo, _INF))
        end = bisect_left(keys, (hi, -_INF))
        return events[start:end]

    def purge_through(self, ts: int) -> int:
        """Drop all events with ``ts <= ts`` across every type; returns count."""
        dropped = 0
        for keys, events in self._by_type.values():
            if not keys or keys[0][0] > ts:
                continue
            cut = bisect_right(keys, (ts, _INF))
            if cut:
                del keys[:cut]
                del events[:cut]
                dropped += cut
        self.purged += dropped
        return dropped

    def drop_oldest(self, etype: str, count: int) -> int:
        """Shed up to *count* oldest events of *etype* (load shedding)."""
        if etype not in self._by_type:
            return 0
        keys, events = self._by_type[etype]
        cut = min(count, len(events))
        if cut > 0:
            del keys[:cut]
            del events[:cut]
        return cut

    # -- non-destructive previews (observability) -------------------------------

    def events_through(self, ts: int) -> List[Event]:
        """The events :meth:`purge_through` *would* drop at *ts*, unchanged."""
        victims: List[Event] = []
        for keys, events in self._by_type.values():
            cut = bisect_right(keys, (ts, float("inf")))
            victims.extend(events[:cut])
        return victims

    def oldest_events(self, etype: str, count: int) -> List[Event]:
        """The events :meth:`drop_oldest` *would* shed, unchanged."""
        if etype not in self._by_type:
            return []
        return self._by_type[etype][1][:count]

    def size(self) -> int:
        return sum(len(events) for _, events in self._by_type.values())

    def oldest_type(self):
        """(smallest (ts, eid) held, its event type), or None when empty.

        Drives drop-oldest load shedding: the caller compares the key
        against other stores and sheds from whichever holds the oldest.
        """
        best = None
        for etype, (keys, _) in self._by_type.items():
            if keys and (best is None or keys[0] < best[0]):
                best = (keys[0], etype)
        return best

    # -- checkpointing ---------------------------------------------------------

    def snapshot_state(self) -> dict:
        return {
            "types": {t: list(events) for t, (_, events) in self._by_type.items()},
            "inserted": self.inserted,
            "purged": self.purged,
        }

    def restore_state(self, state: dict) -> None:
        # In place: callers hold the lists for the store's lifetime.
        for etype, (keys, events) in self._by_type.items():
            events[:] = state["types"].get(etype, ())
            keys[:] = [(e.ts, e.eid) for e in events]
        self.inserted = state["inserted"]
        self.purged = state["purged"]
