"""State purge: keeping engine memory bounded under disorder.

Purging is where out-of-order arrival hurts most.  An in-order engine
can discard an instance as soon as the current timestamp passes its
window; under disorder a *late* arrival might still need that instance,
so purge decisions must be keyed on the **safe horizon** derived from
the disorder bound K (see ``repro.core.clock``), not on the raw clock.

Derivation of the thresholds (W = window, h = horizon; "future" events
have occurrence time > h):

* an instance at a **non-final** step can only join matches whose last
  event is within W above it; future arrivals satisfy ``ts > h``, so
  once ``e.ts + W <= h`` nothing can complete it → purge ``e.ts <= h - W``;
* an instance at the **final** step needs strictly-older future
  arrivals to form new matches; once ``e.ts - 1 <= h`` none can arrive
  → purge ``e.ts <= h + 1`` (the paper's observation that final-step
  state can be dropped much earlier);
* a **negated-type** event can only invalidate matches whose negation
  bracket contains it; every such bracket seals no later than
  ``e.ts + W`` on the horizon axis (proof in ``repro.core.negation``)
  and the engine seals pending matches *before* purging → purge
  ``e.ts <= h - W``.

Three policies are provided for the ablation (experiment E5):

* **EAGER** — purge after every element; minimal state, per-event cost;
* **LAZY** — purge every *interval* elements; amortised cost, state
  overshoots between runs;
* **NONE** — never purge; the pathological configuration that shows
  why purge algorithms matter (state grows without bound).
"""

from __future__ import annotations

import enum
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.core.stacks import NegativeStore, SortedStack, StackSet


class PurgeMode(enum.Enum):
    """When purge runs relative to event processing."""

    NONE = "none"
    EAGER = "eager"
    LAZY = "lazy"


class PurgePolicy:
    """A purge schedule; construct via the class methods.

    >>> PurgePolicy.eager()
    PurgePolicy(eager)
    >>> PurgePolicy.lazy(interval=256)
    PurgePolicy(lazy, interval=256)
    """

    __slots__ = ("mode", "interval", "_since_last")

    def __init__(self, mode: PurgeMode, interval: int = 1):
        if mode is PurgeMode.LAZY:
            if not isinstance(interval, int) or isinstance(interval, bool) or interval < 1:
                raise ConfigurationError(
                    f"lazy purge interval must be a positive int, got {interval!r}"
                )
        self.mode = mode
        self.interval = interval
        self._since_last = 0

    @classmethod
    def none(cls) -> "PurgePolicy":
        """Never purge (pathological baseline for E5)."""
        return cls(PurgeMode.NONE)

    @classmethod
    def eager(cls) -> "PurgePolicy":
        """Purge after every processed element (the paper's default)."""
        return cls(PurgeMode.EAGER)

    @classmethod
    def lazy(cls, interval: int = 128) -> "PurgePolicy":
        """Purge every *interval* processed elements."""
        return cls(PurgeMode.LAZY, interval=interval)

    def due(self) -> bool:
        """Advance the schedule by one element; True when purge should run."""
        if self.mode is PurgeMode.NONE:
            return False
        if self.mode is PurgeMode.EAGER:
            return True
        self._since_last += 1
        if self._since_last >= self.interval:
            self._since_last = 0
            return True
        return False

    def snapshot_state(self) -> dict:
        """Mutable schedule progress (mode/interval are config, not state)."""
        return {"since_last": self._since_last}

    def restore_state(self, state: dict) -> None:
        self._since_last = state["since_last"]

    def clone(self) -> "PurgePolicy":
        """Fresh policy with the same schedule but private progress state.

        ``due()`` mutates ``_since_last``, so a single LAZY policy object
        shared across engines would interleave their purge schedules
        (each engine advancing the other's countdown).  Engines therefore
        clone whatever policy they are handed.
        """
        return PurgePolicy(self.mode, self.interval)

    def __repr__(self) -> str:
        if self.mode is PurgeMode.LAZY:
            return f"PurgePolicy(lazy, interval={self.interval})"
        return f"PurgePolicy({self.mode.value})"


#: The next expiry of empty state: no horizon reaches it.
NEVER = float("inf")
#: What :meth:`Purger.cut` takes: ``(keys, owner, delay)`` per stack or
#: side-store type, ``keys`` being the (ts, eid) list its owner cuts in place.
Entries = Sequence[Tuple[List[Tuple[int, int]], Any, int]]


class Purger:
    """Applies the threshold arithmetic to one engine's state.

    An item stored at ``ts`` expires — becomes purgeable — once the
    horizon reaches ``ts + delay``: -1 on the final stack, W on the other
    stacks and in the side (negative and Kleene) stores.
    """

    __slots__ = ("window", "pattern_length", "_delays")

    def __init__(self, window: int, pattern_length: int):
        self.window = window
        self.pattern_length = pattern_length
        self._delays = (window,) * (pattern_length - 1) + (-1,)

    def resolve(
        self, stacks: Sequence[SortedStack], sides: Sequence[NegativeStore]
    ) -> Tuple[Entries, Entries]:
        """:meth:`cut`'s entries; stores keep their lists for life, so resolve once."""
        return (
            tuple(zip([stack._keys for stack in stacks], stacks, self._delays)),
            tuple(
                (keys, store, self.window)
                for store in sides for keys, _ in store._by_type.values()
            ),
        )

    def cut(self, horizon: int, stacks: Entries, sides: Entries) -> Tuple[int, int, float]:
        """The engine's one purge routine: drop everything expired at *horizon*.

        Returns ``(instances dropped, side events dropped, next expiry)``.
        Callers seal pending matches first: the side stores' retention
        proof (Kleene elements share the negatives') relies on it.
        """
        if horizon < 0:
            return 0, 0, self.next_expiry(stacks, sides)
        dropped = side_dropped = 0
        expiry = NEVER
        for keys, stack, delay in stacks:
            if keys:
                head = keys[0][0] + delay
                if head <= horizon:
                    dropped += stack.purge_through(horizon - delay)
                    if not keys:
                        continue
                    head = keys[0][0] + delay
                if head < expiry:
                    expiry = head
        for keys, store, delay in sides:
            if keys:
                head = keys[0][0] + delay
                if head <= horizon:
                    # Cuts every type of the store: later heads are above.
                    side_dropped += store.purge_through(horizon - delay)
                    if not keys:
                        continue
                    head = keys[0][0] + delay
                if head < expiry:
                    expiry = head
        return dropped, side_dropped, expiry

    def next_expiry(self, stacks: Entries, sides: Entries) -> float:
        """The smallest horizon at which anything stored expires (``NEVER`` if empty)."""
        return min(
            [keys[0][0] + delay for keys, _, delay in (*stacks, *sides) if keys],
            default=NEVER,
        )

    def peek(
        self,
        horizon: int,
        stacks: StackSet,
        negatives: Optional[NegativeStore] = None,
        kleene: Optional[NegativeStore] = None,
    ) -> list:
        """The events :meth:`cut` would evict at *horizon*, without evicting.

        Shares the threshold arithmetic with :meth:`cut` so a preview
        taken immediately before a purge lists exactly its victims.
        Deduplicated by event identity (the same event can sit in
        several stacks) and returned in (ts, eid) order for stable
        trace output.  Tracing-only — never on the uninstrumented path.
        """
        if horizon < 0:
            return []
        victims = {}
        for stack, delay in zip(stacks, self._delays):
            for event in stack.events_through(horizon - delay):
                victims[event.eid] = event
        for store in (negatives, kleene):
            if store is not None:
                for event in store.events_through(horizon - self.window):
                    victims[event.eid] = event
        return sorted(victims.values(), key=lambda e: (e.ts, e.eid))
