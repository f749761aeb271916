"""Declarative stream schemas: what a source is allowed to send.

A :class:`StreamSchema` is the admission contract between sources and
the gateway, modelled on the streamspec DSL idiom (stream name, typed
event schemas, ``t_event`` field, ``partition_key``, ordering scope,
and a deterministic idempotency-ID derivation).  Everything the
exactly-once story needs is derived, never invented:

* the **occurrence timestamp** of a frame is the value of the schema's
  ``t_event`` field (an int, validated);
* the **idempotency id** is either an explicit unique field or a
  deterministic hash of ``(stream, etype, declared key fields,
  t_event)`` — a redelivered frame derives the same id on any gateway
  incarnation;
* the **event identity** (``eid``) is derived from the idempotency id,
  so replaying a delivery reproduces a byte-identical event and result
  sets stay comparable across crash/recover cycles.

Schemas are plain data (``to_dict``/``from_dict``/JSON file) so a
deployment can version them next to its queries.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii as _quote  # json.dumps's str encoding
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.core.errors import ConfigurationError
from repro.core.event import Event, screened_event

#: Ordering scopes a schema may declare.  ``per_source`` promises each
#: source sends its own events in occurrence order (slack 0 per source);
#: ``per_key`` promises order within a partition key only; ``global``
#: promises nothing beyond the configured per-source slack.
ORDERING_SCOPES = ("per_source", "per_key", "global")

_FIELD_TYPES: Dict[str, tuple] = {
    "int": (int,),
    "str": (str,),
    "float": (int, float),
    "any": (object,),
}
_ABSENT = object()


class FieldSpec:
    """One declared attribute: name, wire type, required flag."""

    __slots__ = ("name", "ftype", "required")

    def __init__(self, name: str, ftype: str = "any", required: bool = True):
        if not isinstance(name, str) or not name:
            raise ConfigurationError(f"field name must be a non-empty string, got {name!r}")
        if ftype not in _FIELD_TYPES:
            raise ConfigurationError(
                f"field {name!r}: unknown type {ftype!r}; known: {sorted(_FIELD_TYPES)}"
            )
        self.name = name
        self.ftype = ftype
        self.required = bool(required)

    def to_dict(self) -> dict:
        return {"name": self.name, "type": self.ftype, "required": self.required}

    def __repr__(self) -> str:
        flag = "required" if self.required else "optional"
        return f"FieldSpec({self.name}: {self.ftype} {flag})"


class EventSchema:
    """The declared shape of one event type."""

    __slots__ = ("etype", "fields")

    def __init__(self, etype: str, fields: Iterable[FieldSpec] = ()):
        if not isinstance(etype, str) or not etype:
            raise ConfigurationError(
                f"event type must be a non-empty string, got {etype!r}"
            )
        self.etype = etype
        self.fields: Dict[str, FieldSpec] = {}
        for spec in fields:
            if spec.name in self.fields:
                raise ConfigurationError(
                    f"event {etype!r} declares field {spec.name!r} twice"
                )
            self.fields[spec.name] = spec

    def to_dict(self) -> dict:
        return {
            "etype": self.etype,
            "fields": [self.fields[name].to_dict() for name in self.fields],
        }


class _EventPlan:
    """One event type's admission plan, compiled once per schema.

    What :meth:`StreamSchema.screen` would otherwise look up or encode
    again per frame: the declared fields as ``(name, allowed types or
    None for any, required, type name)``, the other keys that must be
    present (each with its quarantine reason), and the constant pieces
    of the idempotency material.
    """

    __slots__ = ("fields", "present", "t_event", "id_field", "head", "parts")

    def __init__(self, schema: "StreamSchema", event: EventSchema):
        self.fields = tuple(
            (spec.name, None if spec.ftype == "any" else _FIELD_TYPES[spec.ftype],
             spec.required, spec.ftype)
            for spec in event.fields.values()
        )
        must = [(schema.partition_key, "partition key"),
                (schema.idempotency_field, "idempotency")]
        must += [(key, "idempotency derivation") for key in schema.idempotency_fields]
        self.present = tuple(
            (key, f"missing {what} field {key!r}") for key, what in must if key is not None
        )
        self.t_event = schema.t_event
        self.id_field = schema.idempotency_field
        self.head = (
            f"[{json.dumps(schema.name)}, {json.dumps(event.etype)}, "
            if self.id_field is None else f"{schema.name}:{event.etype}:"
        )
        self.parts = tuple(
            (field, f", [{json.dumps(field)}, ")
            for field in schema.idempotency_fields or sorted(event.fields)
        )

    def idem(self, attrs: Mapping[str, Any]) -> str:
        """The frame's idempotency id: the explicit field, or SHA-1 over
        exactly the bytes of ``json.dumps([stream, etype, t_event value,
        [field, repr(value)], ...])`` (WALs and restarts dedupe on them),
        joined from the pre-encoded pieces."""
        if self.id_field is not None:
            return f"{self.head}{attrs[self.id_field]!r}"
        ts = attrs.get(self.t_event)
        chunks = [self.head, repr(ts) if type(ts) is int else json.dumps(ts)]
        for field, lead in self.parts:
            chunks += (lead, _quote(repr(attrs.get(field))), "]")
        chunks.append("]")
        return hashlib.sha1("".join(chunks).encode("ascii")).hexdigest()


class StreamSchema:
    """The admission contract for one ingested stream.

    Parameters
    ----------
    name:
        Stream name; part of every derived idempotency id.
    t_event:
        Attribute carrying the occurrence timestamp (int >= 0).
    events:
        The event types this stream may carry.
    partition_key:
        Optional attribute used for per-key routing downstream; when
        declared it is required on every frame.
    ordering_scope:
        One of :data:`ORDERING_SCOPES`.
    source_slack:
        Residual per-source disorder the schema tolerates: a source's
        watermark trails its max ``t_event`` by this much.  Must be 0
        under ``per_source`` ordering (that scope *is* the promise).
    idempotency_field:
        Explicit unique-id attribute.  When None, ids are derived by
        hashing ``(name, etype, key fields, t_event)``.
    idempotency_fields:
        The attributes hashed in derived mode (default: all declared
        fields of the event type, sorted).
    """

    __slots__ = (
        "name",
        "t_event",
        "events",
        "partition_key",
        "ordering_scope",
        "source_slack",
        "idempotency_field",
        "idempotency_fields",
        "_plans",
    )

    def __init__(
        self,
        name: str,
        t_event: str,
        events: Iterable[EventSchema],
        partition_key: Optional[str] = None,
        ordering_scope: str = "per_source",
        source_slack: int = 0,
        idempotency_field: Optional[str] = None,
        idempotency_fields: Tuple[str, ...] = (),
    ):
        if not isinstance(name, str) or not name:
            raise ConfigurationError(f"stream name must be a non-empty string, got {name!r}")
        if not isinstance(t_event, str) or not t_event:
            raise ConfigurationError(f"t_event must name an attribute, got {t_event!r}")
        if ordering_scope not in ORDERING_SCOPES:
            raise ConfigurationError(
                f"unknown ordering scope {ordering_scope!r}; known: {ORDERING_SCOPES}"
            )
        if not isinstance(source_slack, int) or isinstance(source_slack, bool) or source_slack < 0:
            raise ConfigurationError(
                f"source_slack must be an int >= 0, got {source_slack!r}"
            )
        if ordering_scope == "per_source" and source_slack != 0:
            raise ConfigurationError(
                "per_source ordering promises slack 0; declare ordering_scope "
                f"'global' to tolerate slack {source_slack}"
            )
        if ordering_scope == "per_key" and partition_key is None:
            raise ConfigurationError("per_key ordering needs a partition_key")
        self.name = name
        self.t_event = t_event
        self.events: Dict[str, EventSchema] = {}
        for schema in events:
            if schema.etype in self.events:
                raise ConfigurationError(
                    f"stream {name!r} declares event type {schema.etype!r} twice"
                )
            self.events[schema.etype] = schema
        if not self.events:
            raise ConfigurationError(f"stream {name!r} declares no event types")
        self.partition_key = partition_key
        self.ordering_scope = ordering_scope
        self.source_slack = source_slack
        self.idempotency_field = idempotency_field
        self.idempotency_fields = tuple(idempotency_fields)
        self._plans = {
            etype: _EventPlan(self, schema) for etype, schema in self.events.items()
        }

    # -- the one admission pass ---------------------------------------------------------

    def screen(self, etype: Any, attrs: Any) -> Tuple[Optional[str], Optional[str]]:
        """Screen a frame once: ``(reason, None)`` or ``(None, idempotency id)``.

        The only implementation of validation order, reason strings and
        id derivation; the three methods below are views of it.  The
        checks subsume engine-side admission
        (:func:`repro.core.event.malformed_reason`): any frame passing
        here builds an :class:`~repro.core.event.Event` that the engine
        admits, so gateway-side quarantine accounting matches what
        ``ValidationPolicy.QUARANTINE`` would have counted.
        """
        if not isinstance(etype, str) or not etype:
            return f"event type must be a non-empty string, got {etype!r}", None
        if not isinstance(attrs, dict):
            return f"attrs must be an object, got {type(attrs).__name__}", None
        plan = self._plans.get(etype)
        if plan is None:
            return (
                f"event type {etype!r} is not declared by stream {self.name!r}; "
                f"declared: {sorted(self.events)}"
            ), None
        for name, allowed, required, ftype in plan.fields:
            value = attrs.get(name, _ABSENT)
            if value is _ABSENT:
                if required:
                    return f"event {etype!r} is missing required field {name!r}", None
            elif allowed is not None and (
                isinstance(value, bool) or not isinstance(value, allowed)
            ):
                return (
                    f"event {etype!r}: field {name!r} must be {ftype}, got {value!r}"
                ), None
        ts = attrs.get(self.t_event)
        if ts is None:
            return f"missing t_event field {self.t_event!r}", None
        if type(ts) is not int:
            return f"t_event field {self.t_event!r} must be an int, got {ts!r}", None
        if ts < 0:
            return f"t_event field {self.t_event!r} must be >= 0, got {ts}", None
        for key, reason in plan.present:
            if key not in attrs:
                return reason, None
        return None, plan.idem(attrs)

    def check_frame(self, etype: Any, attrs: Any) -> Optional[str]:
        """Why the frame must be quarantined, or None when admissible."""
        return self.screen(etype, attrs)[0]

    # -- identity derivation ------------------------------------------------------------

    def idempotency_id(self, etype: str, attrs: Mapping[str, Any]) -> str:
        """Deterministic redelivery identity of a validated frame."""
        return self._plans[etype].idem(attrs)

    def derive_eid(self, idem_id: str) -> int:
        """Stable positive event id from an idempotency id.

        63 bits of SHA-1: collisions are negligible at any realistic
        window size, and the id survives crash/replay so result-set
        comparisons by event identity keep working.
        """
        digest = hashlib.sha1(idem_id.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF

    def event_for(self, etype: str, attrs: Mapping[str, Any], idem_id: str) -> Event:
        """The engine-side event for a screened frame whose id is *idem_id*:
        built once, without re-checking what :meth:`screen` checked, from a
        copy of *attrs* (the caller may keep and mutate its dict)."""
        return screened_event(
            etype, attrs[self.t_event], dict(attrs), self.derive_eid(idem_id)
        )

    def build_event(self, etype: str, attrs: Mapping[str, Any]) -> Event:
        """The engine-side event for a validated frame."""
        return self.event_for(etype, attrs, self.idempotency_id(etype, attrs))

    def partition_of(self, attrs: Mapping[str, Any]) -> Optional[Any]:
        """The frame's partition key value (None when not declared)."""
        if self.partition_key is None:
            return None
        return attrs.get(self.partition_key)

    # -- serialisation ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": "repro-streamspec-v1",
            "name": self.name,
            "t_event": self.t_event,
            "partition_key": self.partition_key,
            "ordering_scope": self.ordering_scope,
            "source_slack": self.source_slack,
            "idempotency": {
                "field": self.idempotency_field,
                "fields": list(self.idempotency_fields),
            },
            "events": [self.events[etype].to_dict() for etype in self.events],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StreamSchema":
        if not isinstance(data, Mapping):
            raise ConfigurationError(f"schema document must be an object, got {data!r}")
        declared = data.get("format", "repro-streamspec-v1")
        if declared != "repro-streamspec-v1":
            raise ConfigurationError(f"unsupported schema format {declared!r}")
        events = []
        for entry in data.get("events", ()):
            fields = [
                FieldSpec(
                    spec["name"],
                    spec.get("type", "any"),
                    spec.get("required", True),
                )
                for spec in entry.get("fields", ())
            ]
            events.append(EventSchema(entry["etype"], fields))
        idem = data.get("idempotency") or {}
        return cls(
            name=data.get("name", ""),
            t_event=data.get("t_event", ""),
            events=events,
            partition_key=data.get("partition_key"),
            ordering_scope=data.get("ordering_scope", "per_source"),
            source_slack=data.get("source_slack", 0),
            idempotency_field=idem.get("field"),
            idempotency_fields=tuple(idem.get("fields") or ()),
        )

    def __repr__(self) -> str:
        return (
            f"StreamSchema({self.name!r}, t_event={self.t_event!r}, "
            f"events={sorted(self.events)}, scope={self.ordering_scope})"
        )


def load_schema(path: Union[str, Path]) -> StreamSchema:
    """Read a JSON schema document written by ``StreamSchema.to_dict``."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"{path}: cannot read schema ({exc})") from None
    return StreamSchema.from_dict(data)


def dump_schema(schema: StreamSchema, path: Union[str, Path]) -> None:
    """Write *schema* as an indented JSON document."""
    Path(path).write_text(
        json.dumps(schema.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
