"""Disorder-bound estimation: choosing K from observed lateness.

The engines take the disorder bound K as a promise.  Where does K come
from in practice?  Either from domain knowledge (the paper's setting —
e.g. a known retransmission timeout), or *estimated* from the stream
itself.  This module provides the estimation side, the ablation axis of
experiment E12:

* :class:`MaxObservedK` — running maximum of observed delays, with an
  optional safety margin.  Never shrinks, so it eventually dominates
  any stationary disorder process;
* :class:`QuantileK` — tracks a delay quantile over a sliding sample
  window, trading a bounded violation rate for much smaller K (hence
  lower latency and memory) on heavy-tailed disorder.

An estimator consumes arrival observations (via ``observe``) and
exposes the current recommendation (``current``).  E12 trains one on a
prefix of the arrival stream and freezes K for the whole run;
:class:`~repro.streams.controller.AdaptiveKController` consults one
live, re-freezing K at punctuation boundaries.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from fractions import Fraction
from typing import Deque, List

from repro.core.errors import ConfigurationError
from repro.core.event import Event
from repro.metrics.latency import percentile_index


class MaxObservedK:
    """Running maximum of observed delays, plus a safety margin.

    ``delay(e) = max_ts_seen_before_e - e.ts`` (clamped at zero); the
    recommendation is ``max_delay * (1 + margin)`` rounded up.  The
    classic conservative estimator: zero observed violations on
    re-played history, at the cost of being driven by the single worst
    straggler ever seen.
    """

    def __init__(self, margin: float = 0.0, initial: int = 0):
        if margin < 0:
            raise ConfigurationError(f"margin must be >= 0, got {margin}")
        if initial < 0:
            raise ConfigurationError(f"initial must be >= 0, got {initial}")
        self.margin = margin
        self._max_ts = -1
        self._max_delay = initial

    def observe(self, event: Event) -> None:
        if event.ts < self._max_ts:
            delay = self._max_ts - event.ts
            if delay > self._max_delay:
                self._max_delay = delay
        elif event.ts > self._max_ts:
            self._max_ts = event.ts

    def current(self) -> int:
        if self.margin == 0.0:
            return self._max_delay
        # Exact ceiling arithmetic: ``int()`` would truncate a
        # fractional margin downward (int(10 * 1.25) == 12 where the
        # margin demands 13), silently converting the safety margin
        # into late-drops, and raw float rounding can land either side
        # of an integer boundary.  ``limit_denominator`` recovers the
        # decimal margin the caller wrote (0.25 -> 1/4) so the ceiling
        # is taken over the intended product, never a float artifact.
        margin = Fraction(self.margin).limit_denominator(1_000_000)
        return math.ceil(self._max_delay * (1 + margin))


class QuantileK:
    """Sliding-window delay quantile: bounded violations, smaller K.

    Keeps the last *window* delay observations in a sorted structure
    and recommends the *quantile*-th delay (e.g. 0.999).  On
    heavy-tailed disorder this yields a far smaller K than the running
    max, at the price of a controlled violation rate — the trade-off
    experiment E12 quantifies.
    """

    def __init__(
        self,
        quantile: float = 0.99,
        window: int = 1000,
        margin: int = 0,
        initial: int = 0,
    ):
        if not 0.0 < quantile <= 1.0:
            raise ConfigurationError(f"quantile must be in (0, 1], got {quantile}")
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        if margin < 0:
            raise ConfigurationError(f"margin must be >= 0, got {margin}")
        if initial < 0:
            raise ConfigurationError(f"initial must be >= 0, got {initial}")
        self.quantile = quantile
        self.window = window
        self.margin = margin
        self.initial = initial
        self._max_ts = -1
        self._recent: Deque[int] = deque()
        self._sorted: List[int] = []

    def observe(self, event: Event) -> None:
        delay = 0
        if event.ts < self._max_ts:
            delay = self._max_ts - event.ts
        elif event.ts > self._max_ts:
            self._max_ts = event.ts
        self._recent.append(delay)
        bisect.insort(self._sorted, delay)
        if len(self._recent) > self.window:
            expired = self._recent.popleft()
            index = bisect.bisect_left(self._sorted, expired)
            del self._sorted[index]

    def current(self) -> int:
        # The `initial` floor (mirroring MaxObservedK) covers the
        # cold-start: with zero observations the bare margin would
        # recommend an effective K=0, which a controller re-freezing at
        # punctuation boundaries would lock in during warm-up.  The
        # floor holds only until the window fills — after that the
        # observed quantile is the whole point of this estimator, and a
        # warm-start value must not pin the bound forever.
        if not self._sorted:
            return max(self.initial, self.margin)
        # ceil(q*n)-1 rank, shared with metrics.latency: the floor rank
        # int(q*n) picks one too high on small windows (q=0.5 over two
        # delays would return the max, silently inflating K).
        index = percentile_index(len(self._sorted), self.quantile)
        estimate = self._sorted[index] + self.margin
        if len(self._sorted) < self.window:
            return max(self.initial, estimate)
        return estimate
