"""Engine clocks: tracking progress of occurrence time under disorder.

The out-of-order engine needs a notion of "how far time has advanced"
that is robust to late arrivals.  Following the paper, the engine clock
is the **maximum occurrence timestamp seen so far**; combined with the
disorder bound K it yields a *safe horizon*::

    horizon = clock - K

No event with occurrence time ``<= horizon`` will ever arrive again
(that is the K promise), so state whose usefulness ends at or before
the horizon can be purged and negation intervals at or before it can be
sealed.  Punctuations can push the horizon further than the K promise
alone (e.g. a source that knows it is fully flushed).

This module keeps the clock logic in one place so every engine
(in-order, out-of-order, reordering, partitioned) shares identical
horizon arithmetic — a prerequisite for the benchmarks to compare like
with like.
"""

from __future__ import annotations

from typing import Optional

from repro.core.errors import ConfigurationError
from repro.core.event import Event, Punctuation


class StreamClock:
    """Tracks max occurrence time and the K-safe horizon.

    Parameters
    ----------
    k:
        The disorder bound: an event with occurrence time ``t`` is
        promised to arrive while ``clock <= t + k``.  ``k=0`` asserts
        in-order arrival.  ``None`` means *no promise* — the horizon
        never advances from the K side (only punctuations move it), so
        state is held indefinitely unless punctuated.

    Notes
    -----
    The clock starts at -1 ("before time zero") so an event at ts=0 is
    never considered late.
    """

    __slots__ = ("_k", "_max_ts", "_punctuated", "_observations")

    def __init__(self, k: Optional[int] = None):
        if k is not None and (not isinstance(k, int) or isinstance(k, bool) or k < 0):
            raise ConfigurationError(f"disorder bound K must be an int >= 0 or None, got {k!r}")
        self._k = k
        self._max_ts = -1
        self._punctuated = -1
        self._observations = 0

    @property
    def k(self) -> Optional[int]:
        """The configured disorder bound (None = unbounded)."""
        return self._k

    @property
    def now(self) -> int:
        """Maximum occurrence timestamp observed so far (-1 before any event)."""
        return self._max_ts

    @property
    def observations(self) -> int:
        """Number of events observed (punctuations excluded)."""
        return self._observations

    def observe(self, event: Event) -> bool:
        """Record *event* and report whether it arrived out of order.

        Returns ``True`` when the event's occurrence time is older than
        the current clock (i.e. some younger event already arrived).
        """
        self._observations += 1
        if event.ts > self._max_ts:
            self._max_ts = event.ts
            return False
        return event.ts < self._max_ts

    def observe_punctuation(self, punctuation: Punctuation) -> None:
        """Advance the punctuated horizon; never moves backwards."""
        if punctuation.ts > self._punctuated:
            self._punctuated = punctuation.ts
        if punctuation.ts > self._max_ts:
            self._max_ts = punctuation.ts

    def is_late(self, event: Event) -> bool:
        """True when *event* violates the promises made so far.

        An event is late when its occurrence time is at or below the
        safe horizon: either the K promise or a punctuation already
        asserted that no such event remains in flight.
        """
        return event.ts <= self.horizon()

    def horizon(self) -> int:
        """Largest ``t`` such that no event with ``ts <= t`` can still arrive.

        Combines the K promise (``max_ts - k``... strictly, an event at
        ``t`` may arrive while ``clock <= t + k``, so only ``t <
        clock - k`` is sealed, i.e. horizon = ``clock - k - 1``) with
        the punctuated horizon, whichever is further along.
        """
        k_horizon = -1
        if self._k is not None and self._max_ts >= 0:
            k_horizon = self._max_ts - self._k - 1
        return max(k_horizon, self._punctuated)

    def sealed(self, ts: int) -> bool:
        """True when no event with occurrence time ``<= ts`` can still arrive."""
        return ts <= self.horizon()

    def refreeze(self, k: Optional[int]) -> None:
        """Re-freeze the disorder bound at an epoch boundary.

        The purge proofs assume the horizon never regresses, so changing
        K mid-run is only sound if the old horizon is first locked in:
        the current horizon is folded into the punctuated floor before
        the new bound takes effect.  Growing K therefore never re-admits
        occurrence times whose partner state was already purged, and
        shrinking K only ever advances sealing — the controller's
        quality-for-latency trade (see ``repro.streams.controller``).
        """
        if k is not None and (not isinstance(k, int) or isinstance(k, bool) or k < 0):
            raise ConfigurationError(f"disorder bound K must be an int >= 0 or None, got {k!r}")
        floor = self.horizon()
        if floor > self._punctuated:
            self._punctuated = floor
        self._k = k

    def reset(self) -> None:
        """Return to the initial state (used by replay tooling)."""
        self._max_ts = -1
        self._punctuated = -1
        self._observations = 0

    def snapshot_state(self) -> dict:
        """Mutable clock state for engine checkpoints.

        K rides along because :meth:`refreeze` makes it state when a
        controller is attached; for fixed-K engines the stored value
        always equals the configured one.
        """
        return {
            "k": self._k,
            "max_ts": self._max_ts,
            "punctuated": self._punctuated,
            "observations": self._observations,
        }

    def restore_state(self, state: dict) -> None:
        # ``get`` with the current bound: snapshots taken before K was
        # re-freezable carry no "k" key and restore the configured value.
        self._k = state.get("k", self._k)
        self._max_ts = state["max_ts"]
        self._punctuated = state["punctuated"]
        self._observations = state["observations"]

    def __repr__(self) -> str:
        k = "∞" if self._k is None else self._k
        return f"StreamClock(now={self._max_ts}, k={k}, horizon={self.horizon()})"
