"""Per-source liveness: a silent source must not stall everyone's seals.

The merged watermark (:class:`repro.streams.punctuation.
SourceWatermarks`) is a *minimum* over sources, so one stalled producer
— crashed, partitioned, wedged — freezes punctuation for the whole
stream and negation/Kleene results wait forever.  The tracker layered
here turns that unbounded stall into a bounded, observable degradation:

* every frame (and every connect) stamps the source's last-activity
  time;
* :meth:`LivenessTracker.tick` — driven by the gateway's timer —
  marks any source silent for longer than *timeout* (live or merely
  disconnected) as **degraded** and fences its watermark out of the
  merge; a torn connection alone never fences, because retrying
  clients reconnect constantly and deserve the full timeout;
* a degraded source that speaks again (frame or reconnect) transitions
  back to **live**; its watermark is lifted to the already-emitted
  merged mark, so reconnection never drags punctuation backward — its
  older in-flight events become engine-side late drops, which is the
  accounted, bounded price of the fence.

Time is injected (``now`` parameters), never read: the tracker itself
stays deterministic and unit-testable; only the gateway's timer task
touches the wall clock.
"""

from __future__ import annotations

import enum
import math
from typing import Dict, List, NamedTuple, Optional

from repro.core.errors import ConfigurationError
from repro.streams.punctuation import SourceWatermarks


class SourceStatus(enum.Enum):
    """Where a source stands in the liveness state machine."""

    LIVE = "live"  #: connected and recently active
    DEGRADED = "degraded"  #: silent past the timeout; watermark fenced
    DISCONNECTED = "disconnected"  #: connection closed; fenced only at the timeout


class Transition(NamedTuple):
    """One liveness state change, for journals and metrics."""

    source: str
    status: SourceStatus
    at: float  #: gateway clock at the transition


class LivenessTracker:
    """Liveness timeouts + watermark fencing over a set of sources.

    Parameters
    ----------
    timeout:
        Seconds of silence after which a live source is degraded.
    slack:
        Residual per-source disorder (see
        :class:`~repro.streams.punctuation.SourceWatermarks`).
    """

    def __init__(self, timeout: float, slack: int = 0):
        if not (math.isfinite(timeout) and timeout > 0):
            raise ConfigurationError(
                f"liveness timeout must be finite and > 0, got {timeout!r}"
            )
        self.timeout = float(timeout)
        self.watermarks = SourceWatermarks(slack)
        self._last_seen: Dict[str, float] = {}
        self._status: Dict[str, SourceStatus] = {}
        self.degraded_total = 0
        self.recovered_total = 0

    # -- state machine ------------------------------------------------------------------

    def connect(self, source: str, now: float) -> Optional[Transition]:
        """A source (re)connected; returns the recovery transition if any."""
        previous = self._status.get(source)
        self._last_seen[source] = now
        self._status[source] = SourceStatus.LIVE
        self.watermarks.unfence(source, floor=self.watermarks.emitted)
        if previous in (SourceStatus.DEGRADED, SourceStatus.DISCONNECTED):
            return self._record(source, SourceStatus.LIVE, now)
        return None

    def observe(self, source: str, ts: int, now: float) -> Optional[Transition]:
        """A frame with occurrence time *ts* arrived from *source*."""
        previous = self._status.get(source)
        self._last_seen[source] = now
        recovery = None
        if previous is not SourceStatus.LIVE:
            self._status[source] = SourceStatus.LIVE
            self.watermarks.unfence(source, floor=self.watermarks.emitted)
            if previous is not None:  # first sighting is not a recovery
                recovery = self._record(source, SourceStatus.LIVE, now)
        self.watermarks.observe(source, ts)
        return recovery

    def assert_watermark(self, source: str, ts: int, now: float) -> None:
        """The source explicitly asserted its own watermark."""
        self._last_seen[source] = now
        self.watermarks.assert_watermark(source, ts)

    def disconnect(self, source: str, now: float) -> Optional[Transition]:
        """The source's connection closed.

        Deliberately does NOT fence: retrying clients tear and remake
        connections all the time, and fencing on every tear would floor
        the source at the emitted mark on reconnect, turning its
        in-flight frames into late drops for a 20 ms blip.  The liveness
        *timeout* is the only fencing authority — a source that stays
        disconnected is degraded (and fenced) by :meth:`tick` once it
        has been silent too long, exactly like a wedged live one.
        """
        if self._status.get(source) is None:
            return None
        if self._status[source] is SourceStatus.DISCONNECTED:
            return None
        self._status[source] = SourceStatus.DISCONNECTED
        return self._record(source, SourceStatus.DISCONNECTED, now)

    def tick(self, now: float) -> List[Transition]:
        """Fence sources silent for longer than the timeout.

        Applies to live *and* disconnected sources: silence is measured
        from last activity, not from connection state, so a torn-and-
        retrying client gets the full timeout to come back before its
        watermark stops holding the merge.
        """
        degraded: List[Transition] = []
        for source in sorted(self._status):
            if self._status[source] is SourceStatus.DEGRADED:
                continue
            if now - self._last_seen[source] <= self.timeout:
                continue
            self._status[source] = SourceStatus.DEGRADED
            self.watermarks.fence(source)
            degraded.append(self._record(source, SourceStatus.DEGRADED, now))
        return degraded

    def _record(self, source: str, status: SourceStatus, at: float) -> Transition:
        """Count a state change; the caller journals the one returned."""
        if status is SourceStatus.LIVE:
            self.recovered_total += 1
        elif status is SourceStatus.DEGRADED:
            self.degraded_total += 1
        return Transition(source, status, at)

    # -- queries ------------------------------------------------------------------------

    def status_of(self, source: str) -> Optional[SourceStatus]:
        return self._status.get(source)

    def live_count(self) -> int:
        return sum(
            1 for status in self._status.values() if status is SourceStatus.LIVE
        )

    def sources(self) -> List[str]:
        return sorted(self._status)

    def merged_watermark(self) -> int:
        return self.watermarks.merged()

    def source_marks(self) -> Dict[str, int]:
        """Per-source watermark marks, sorted by source (telemetry)."""
        return {
            source: self.watermarks.mark(source) for source in self.sources()
        }

    def fenced_map(self) -> Dict[str, bool]:
        """Which known sources are fenced out of the merge (telemetry)."""
        return {
            source: self.watermarks.is_fenced(source) for source in self.sources()
        }

    def __repr__(self) -> str:
        return (
            f"LivenessTracker(timeout={self.timeout}, "
            f"live={self.live_count()}/{len(self._status)}, "
            f"merged={self.watermarks.merged()})"
        )
