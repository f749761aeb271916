"""The one retry/backoff schedule shared across the ingestion layer.

Exponential backoff with capped growth and *deterministic, seedable*
jitter: the same policy object produces the same delay sequence on
every run, so tests (and crash-replay comparisons) never race a random
sleep.  Jitter still does its real job — de-synchronising a fleet of
retrying clients — because each client seeds the policy differently
(e.g. with a hash of its source id).

Three consumers share this module so the schedule is written once:

* :class:`repro.ingest.client.IngestClient` — reconnect/resend loops;
* the gateway's crash supervisor (:func:`run_resilient`) — rebuilding
  a :class:`~repro.core.recovery.ResilientRunner` after a crash;
* ``repro run --crash-at`` — the CLI's recover-and-resume path.
"""

from __future__ import annotations

import math
import random
import time
from typing import Any, Callable, Iterator, Optional, Tuple, Type

from repro.core.errors import ConfigurationError


class BackoffPolicy:
    """Capped exponential backoff with deterministic jitter.

    Parameters
    ----------
    base:
        First delay in seconds (attempt 0, before jitter).
    factor:
        Multiplier per attempt (>= 1).
    cap:
        Upper bound on any single delay.
    retries:
        Attempts allowed before :func:`retry_call` gives up (>= 0;
        zero means "no retries, fail on the first error").
    jitter:
        Fraction of each delay that is jittered: the delay for attempt
        *n* is uniform in ``[raw * (1 - jitter), raw]`` where *raw* is
        the capped exponential value.  Zero disables jitter.
    seed:
        Jitter seed.  The delay sequence is a pure function of
        ``(seed, attempt)`` — two policies with the same parameters
        produce identical schedules, and two clients with different
        seeds spread their retries apart.

    >>> policy = BackoffPolicy(base=0.1, factor=2.0, cap=1.0, jitter=0.0)
    >>> [round(policy.delay(n), 2) for n in range(5)]
    [0.1, 0.2, 0.4, 0.8, 1.0]
    """

    __slots__ = ("base", "factor", "cap", "retries", "jitter", "seed")

    def __init__(
        self,
        base: float = 0.05,
        factor: float = 2.0,
        cap: float = 5.0,
        retries: int = 8,
        jitter: float = 0.5,
        seed: int = 0,
    ) -> None:
        if not (math.isfinite(base) and base > 0):
            raise ConfigurationError(f"backoff base must be finite and > 0, got {base!r}")
        if not (math.isfinite(factor) and factor >= 1.0):
            raise ConfigurationError(
                f"backoff factor must be finite and >= 1, got {factor!r}"
            )
        if not (math.isfinite(cap) and cap >= base):
            raise ConfigurationError(
                f"backoff cap {cap!r} must be finite and >= base {base!r}"
            )
        if not isinstance(retries, int) or isinstance(retries, bool) or retries < 0:
            raise ConfigurationError(f"retries must be an int >= 0, got {retries!r}")
        if not 0.0 <= jitter <= 1.0:
            raise ConfigurationError(f"jitter must be in [0, 1], got {jitter!r}")
        self.base = float(base)
        self.factor = float(factor)
        self.cap = float(cap)
        self.retries = retries
        self.jitter = float(jitter)
        self.seed = seed

    def delay(self, attempt: int) -> float:
        """Delay in seconds before retry *attempt* (0-based)."""
        if attempt < 0:
            raise ConfigurationError(f"attempt must be >= 0, got {attempt}")
        raw = min(self.cap, self.base * self.factor**attempt)
        if self.jitter == 0.0:
            return raw
        # random.Random(int) is stable across processes and platforms,
        # unlike hash() of strings — the schedule must replay exactly.
        unit = random.Random(self.seed * 1_000_003 + attempt).random()
        return raw * (1.0 - self.jitter + self.jitter * unit)

    def delays(self) -> Iterator[float]:
        """The full schedule: one delay per allowed retry."""
        for attempt in range(self.retries):
            yield self.delay(attempt)

    def reseeded(self, seed: int) -> "BackoffPolicy":
        """A copy with a different jitter seed (per-client spreading)."""
        return BackoffPolicy(
            base=self.base,
            factor=self.factor,
            cap=self.cap,
            retries=self.retries,
            jitter=self.jitter,
            seed=seed,
        )

    def __repr__(self) -> str:
        return (
            f"BackoffPolicy(base={self.base}, factor={self.factor}, "
            f"cap={self.cap}, retries={self.retries}, jitter={self.jitter}, "
            f"seed={self.seed})"
        )


def retry_call(
    fn: Callable[[], Any],
    policy: BackoffPolicy,
    retry_on: Tuple[Type[BaseException], ...],
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Optional[Callable[[int, float, BaseException], None]] = None,
) -> Any:
    """Call *fn*, retrying per *policy* on the given exception types.

    *sleep* is injectable so tests (and the asyncio gateway, which must
    not block the loop) substitute their own waiting.  *on_retry* is
    called with ``(attempt, delay, exc)`` before each sleep.  When the
    retry budget is exhausted the last exception propagates.
    """
    attempt = 0
    while True:
        try:
            return fn()
        except retry_on as exc:
            if attempt >= policy.retries:
                raise
            delay = policy.delay(attempt)
            attempt += 1
            if on_retry is not None:
                on_retry(attempt, delay, exc)
            sleep(delay)


def run_resilient(
    build_runner: Callable[[], Any],
    elements: Any,
    policy: Optional[BackoffPolicy] = None,
    sleep: Callable[[float], None] = time.sleep,
    on_crash: Optional[Callable[[int, float, BaseException], None]] = None,
) -> Tuple[Any, int]:
    """Drive ``build_runner().run(elements)`` to completion across crashes.

    The supervisor loop every resilient deployment needs: build a fresh
    runner (recovery happens in its constructor when the directory
    holds state), run the input, and on a :class:`~repro.faultinject.
    CrashError` rebuild after a backoff delay — the same schedule the
    ingestion client uses, extracted here so the two cannot drift.

    Returns ``(runner, crashes)`` where *runner* is the incarnation
    that completed the run.
    """
    from repro.faultinject import CrashError

    if policy is None:
        policy = BackoffPolicy()
    crashes = 0
    runner = None

    def attempt() -> Any:
        nonlocal runner
        runner = build_runner()
        runner.run(elements)
        return runner

    def note(attempt_no: int, delay: float, exc: BaseException) -> None:
        nonlocal crashes
        crashes += 1
        if on_crash is not None:
            on_crash(attempt_no, delay, exc)

    runner = retry_call(
        attempt, policy, retry_on=(CrashError,), sleep=sleep, on_retry=note
    )
    return runner, crashes
