"""Exception hierarchy for the repro event-processing library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.  The concrete
subclasses distinguish malformed queries, malformed stream input, bad
configuration, invalid lifecycle transitions and unrestorable durable
state.  An event that breaks the disorder bound K is not an error: the
engine counts it (``stats.late_dropped``) and drops it.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class QueryError(ReproError):
    """A pattern query is structurally invalid.

    Raised while *building* a query: unknown variables in predicates,
    adjacent negated components, non-positive windows, and similar
    static problems.  A query that constructs without raising
    ``QueryError`` is guaranteed evaluable by every engine.
    """


class ParseError(QueryError):
    """The textual query language could not be parsed.

    Carries the offending position so tooling can point at it.
    """

    def __init__(self, message: str, position: int = -1, text: str = ""):
        self.position = position
        self.text = text
        if position >= 0 and text:
            pointer = text[:position] + " >>> " + text[position:]
            message = f"{message} (at position {position}: {pointer!r})"
        super().__init__(message)


class StreamError(ReproError):
    """A stream element is malformed (e.g. negative timestamp)."""


class EngineStateError(ReproError):
    """The engine was driven through an invalid lifecycle transition.

    For example: feeding events after ``close()``, or asking a purged
    engine to replay state it no longer holds.
    """


class ConfigurationError(ReproError):
    """Engine or substrate configuration is inconsistent."""


class SnapshotError(ReproError):
    """A snapshot blob cannot be restored into this engine.

    Raised when the blob is corrupt, was produced by a different engine
    class, or was produced under a different configuration (pattern, K,
    purge schedule, …).  Restoring state into a differently-configured
    engine would silently change semantics, so the mismatch is fatal.
    """


class RecoveryError(ReproError):
    """Crash recovery found inconsistent durable state.

    Raised when the write-ahead log, checkpoint and delivered-output log
    disagree — e.g. a replayed match does not reproduce the logged
    emission it is supposed to dedup against.  Indicates corruption or a
    non-deterministic engine, both of which make exactly-once delivery
    impossible to guarantee.
    """
