"""Fault-tolerant multi-source ingestion: the engines' network front door.

Everything below ``repro.ingest`` exists to carry events from *sources
that fail* into engines that assume events arrive at all.  The package
splits along the classic ingestion fault boundaries:

* :mod:`repro.ingest.backoff` — the one retry/backoff schedule
  (deterministic, seedable jitter) shared by the client, the gateway's
  crash supervisor, and the CLI recovery loop;
* :mod:`repro.ingest.schema` — declarative stream schemas (event
  types, ``t_event`` field, partition key, ordering scope,
  deterministic idempotency-ID derivation) validated at admission;
* :mod:`repro.ingest.admission` — idempotent admission: bounded
  per-source dedupe windows that count replayed deliveries instead of
  re-feeding them;
* :mod:`repro.ingest.liveness` — per-source liveness: a silent source
  is marked degraded after a configurable timeout and its watermark is
  fenced so sealing never stalls indefinitely;
* :mod:`repro.ingest.server` — the asyncio TCP (newline-JSON) gateway
  in front of a :class:`~repro.core.recovery.ResilientRunner`;
* :mod:`repro.ingest.client` — a retrying client with timeouts,
  exponential backoff with jitter, and a bounded in-flight window.
"""

from repro.ingest.admission import AdmissionController, DedupeWindow
from repro.ingest.backoff import BackoffPolicy, retry_call, run_resilient
from repro.ingest.client import ClientFaultPlan, IngestClient, SendReport
from repro.ingest.liveness import LivenessTracker, SourceStatus, Transition
from repro.ingest.schema import (
    EventSchema,
    FieldSpec,
    StreamSchema,
    load_schema,
)
from repro.ingest.server import (
    GatewayConfig,
    GatewayHandle,
    IngestGateway,
    serve_in_thread,
)

__all__ = [
    "AdmissionController",
    "BackoffPolicy",
    "ClientFaultPlan",
    "DedupeWindow",
    "EventSchema",
    "FieldSpec",
    "GatewayConfig",
    "GatewayHandle",
    "IngestClient",
    "IngestGateway",
    "LivenessTracker",
    "SendReport",
    "SourceStatus",
    "StreamSchema",
    "Transition",
    "load_schema",
    "retry_call",
    "run_resilient",
    "serve_in_thread",
]
