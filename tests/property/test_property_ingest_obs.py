"""Observability-parity property for the ingestion gateway.

Enabling the full observability stack — metrics registry, stage-latency
spans, lag panel, flight recorder — must NEVER change what the gateway
*does*: every ack payload, every admission decision, the sealed match
log, recovery behaviour, and the operator stats must be byte-identical
to an unobserved gateway fed the same frames.  The instrumented half
even runs with a deliberately skewed clock to prove timing never leaks
into decisions.

Scenarios are seeded from ``REPRO_OBS_SEED`` (CI sweeps disjoint seeds;
failures name their seed) and mix disorder, redeliveries, malformed
frames, watermark asserts, liveness ticks, and crash/restart cycles.
"""

from __future__ import annotations

import os
import random

import pytest

from repro import CrashError, FaultInjector, OutOfOrderEngine, parse
from repro.ingest import EventSchema, FieldSpec, GatewayConfig, IngestGateway, StreamSchema
from repro.obs import MetricsRegistry
from repro.obs.flight import FlightRecorder
from repro.obs.span import mint_span

from helpers import delivery_log

SEED = int(os.environ.get("REPRO_OBS_SEED", "0"))
SCENARIOS = 5
QUERY = "PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 20"


def _schema() -> StreamSchema:
    return StreamSchema(
        "orders",
        t_event="ts",
        events=[
            EventSchema("A", [FieldSpec("ts", "int"), FieldSpec("x", "int")]),
            EventSchema("B", [FieldSpec("ts", "int"), FieldSpec("x", "int")]),
        ],
        ordering_scope="global",
        source_slack=2,
    )


def _build(directory, observed: bool, fault=None, clock_skew=0.0):
    pattern = parse(QUERY)
    config = GatewayConfig(_schema(), liveness_timeout=5.0)
    kwargs = {}
    if observed:
        kwargs = {"metrics": MetricsRegistry(), "flight": FlightRecorder()}
    return IngestGateway(
        lambda: OutOfOrderEngine(pattern, k=4),
        config,
        directory=directory,
        fault=fault,
        clock=lambda: 1000.0 + clock_skew,
        **kwargs,
    )


def _script(rng: random.Random, length: int):
    """One reproducible frame script: (op, payload) steps."""
    events = []
    for ts in range(1, length + 1):
        events.append(("A" if rng.random() < 0.5 else "B",
                       {"ts": ts, "x": rng.randint(0, 3)}))
    # Bounded disorder: each event drifts at most k positions from
    # timestamp order, matching the engine's slack model.
    k = rng.randint(0, 4)
    keyed = [
        (attrs["ts"] + rng.randint(0, k), index, (etype, attrs))
        for index, (etype, attrs) in enumerate(events)
    ]
    keyed.sort(key=lambda item: item[:2])
    events = [event for __, __, event in keyed]
    steps = []
    clock = 0.0
    for etype, attrs in events:
        clock += rng.random() * 0.01
        steps.append(("event", ("s%d" % rng.randint(1, 3), etype, attrs, clock)))
        if rng.random() < 0.15:  # redelivery
            steps.append(("event", ("s1", etype, attrs, clock + 0.001)))
        if rng.random() < 0.08:  # malformed frame
            steps.append(("event", ("s2", "bogus", {"ts": attrs["ts"]}, clock)))
        if rng.random() < 0.10:
            steps.append(("watermark", ("s3", attrs["ts"] + 1, clock)))
        if rng.random() < 0.05:
            steps.append(("tick", clock + 0.002))
    steps.append(("sync", None))
    return steps


def _drive(gateway, steps, with_spans: bool):
    """Apply the script; returns every reply payload (crash markers included)."""
    replies = []
    for op, payload in steps:
        try:
            if op == "event":
                source, etype, attrs, now = payload
                span = mint_span(now - 0.05) if with_spans else None
                replies.append(gateway.admit_frame(
                    source, etype, attrs, now=now, span=span
                ))
            elif op == "watermark":
                source, ts, now = payload
                replies.append(gateway.assert_watermark(source, ts, now=now))
            elif op == "tick":
                transitions = gateway.tick(now=payload)
                replies.append([(t.source, t.status.value) for t in transitions])
            elif op == "sync":
                gateway.sync_acks()
        except CrashError:
            replies.append("CRASH")
            return replies, False
    return replies, True


@pytest.mark.parametrize("scenario", range(SCENARIOS))
def test_observability_never_changes_behaviour(tmp_path, scenario):
    rng = random.Random(SEED * 1000 + scenario)
    steps = _script(rng, rng.randint(30, 80))

    plain = _build(tmp_path / "plain", observed=False)
    observed = _build(tmp_path / "observed", observed=True, clock_skew=123.456)

    plain_replies, __ = _drive(plain, steps, with_spans=False)
    observed_replies, __ = _drive(observed, steps, with_spans=True)
    assert plain_replies == observed_replies, f"seed {SEED} scenario {scenario}"

    assert plain.stats() == observed.stats()
    assert [m.key() for m in plain.seal()] == [m.key() for m in observed.seal()]
    # Every delivery, in order — and neither gateway kept any of them.
    assert delivery_log(tmp_path / "plain") == delivery_log(tmp_path / "observed")
    assert plain.stats()["matches"] == observed.stats()["matches"]
    assert plain.runner.matches == observed.runner.matches == []


@pytest.mark.parametrize("scenario", range(SCENARIOS))
def test_parity_holds_across_crash_and_restart(tmp_path, scenario):
    rng = random.Random(SEED * 7000 + 31 * scenario)
    steps = _script(rng, rng.randint(20, 50))
    crash_at = rng.randint(1, 25)

    halves = {}
    for name, observed in (("plain", False), ("observed", True)):
        directory = tmp_path / name
        first = _build(
            directory, observed, fault=FaultInjector(crash_at=[crash_at]),
            clock_skew=99.9 if observed else 0.0,
        )
        before, completed = _drive(first, steps, with_spans=observed)
        assert first.crashed or completed
        second = _build(directory, observed)
        after, __ = _drive(second, steps, with_spans=observed)
        second.seal()
        halves[name] = (
            before, after, second.recovered_frames, second.stats(),
            delivery_log(directory),
        )

    assert halves["plain"] == halves["observed"], (
        f"seed {SEED} scenario {scenario} crash_at {crash_at}"
    )
