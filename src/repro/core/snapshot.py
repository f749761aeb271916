"""Engine checkpoint serialisation: ``snapshot() -> bytes`` / ``restore``.

The durability layer (``repro.core.recovery``) needs to freeze a
running engine's **full deterministic state** — sorted stacks, side
stores, pending seal heap, clock, purge schedule, counters, emitted
results — such that a fresh engine restored from the blob behaves
byte-identically to the original on every subsequent element.  Two
design constraints shape the format:

* **Patterns are not serialised.**  A pattern may hold ``FnPredicate``
  callables (lambdas), which do not pickle.  A snapshot therefore only
  stores the pattern's *fingerprint* inside the config header; the
  restoring engine must already have been constructed with an
  equivalent pattern, and matches are re-built against that live
  pattern object.
* **Config is verified, not restored.**  Construction-time parameters
  (K, purge schedule, optimisation flags) shape behaviour
  but are not mutable state; restoring a blob into a
  differently-configured engine would silently change semantics, so
  :func:`unpack` compares the header against the target engine and
  raises :class:`~repro.core.errors.SnapshotError` on any mismatch.

Events pickle via their ``__reduce__`` (constructor rebuild with an
explicit eid), so identity — which result-set comparisons and the
exactly-once dedup keys rely on — survives the round trip.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict

from repro.core.errors import SnapshotError
from repro.core.pattern import Match, Pattern

#: Bump when the snapshot layout changes incompatibly.
SNAPSHOT_FORMAT = 1


def encode_match(match: Match) -> Dict[str, Any]:
    """Pattern-free encoding of a match (events keep their identity)."""
    state: Dict[str, Any] = {
        "events": list(match.events),
        "detected_at": match.detected_at,
    }
    if match.collections is not None:
        state["collections"] = {
            var: list(elements) for var, elements in match.collections.items()
        }
    return state


def decode_match(pattern: Pattern, state: Dict[str, Any]) -> Match:
    """Rebuild a match against the restoring engine's live pattern."""
    collections = state.get("collections")
    if collections is not None:
        collections = {var: tuple(elements) for var, elements in collections.items()}
    return Match(
        pattern,
        state["events"],
        detected_at=state["detected_at"],
        collections=collections,
    )


def pattern_fingerprint(pattern: Pattern) -> Dict[str, Any]:
    """Structural identity of a pattern, without its (unpicklable) predicates."""
    return {
        "name": pattern.name,
        "length": pattern.length,
        "within": pattern.within,
        "positive_types": pattern.positive_types,
        "negated_types": tuple(sorted(pattern.negated_types)),
        "kleene_types": tuple(sorted(pattern.kleene_types)),
    }


def pack(engine: Any, config: Dict[str, Any], state: Dict[str, Any]) -> bytes:
    """Serialise one engine checkpoint; inverse of :func:`unpack`."""
    payload = {
        "format": SNAPSHOT_FORMAT,
        "engine": type(engine).__name__,
        "config": config,
        "state": state,
    }
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def unpack(engine: Any, blob: bytes) -> Dict[str, Any]:
    """Validate *blob* against *engine* and return its state section.

    Raises :class:`SnapshotError` when the blob is corrupt, from a
    different engine class, or from a different configuration.
    """
    try:
        payload = pickle.loads(blob)
    except Exception as exc:
        raise SnapshotError(f"snapshot blob is not readable: {exc}") from exc
    if not isinstance(payload, dict) or "format" not in payload:
        raise SnapshotError("snapshot blob has no format header")
    if payload["format"] != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"snapshot format {payload['format']!r} is not supported "
            f"(this build reads format {SNAPSHOT_FORMAT})"
        )
    expected = type(engine).__name__
    if payload.get("engine") != expected:
        raise SnapshotError(
            f"snapshot was taken from {payload.get('engine')!r}, "
            f"cannot restore into {expected}"
        )
    config = engine._snapshot_config()
    if payload.get("config") != config:
        raise SnapshotError(
            "snapshot configuration does not match this engine: "
            f"snapshot={payload.get('config')!r} engine={config!r}"
        )
    return payload["state"]
