"""The gateway admission ladder, driven in-process with scripted clocks."""

from __future__ import annotations

import json

import pytest

from repro import Event, OfflineOracle, OutOfOrderEngine, parse
from repro.cli import main as cli_main
from repro.core.engine import ValidationPolicy
from repro.core.errors import ConfigurationError, ReproError
from repro.core.recovery import read_wal_elements
from repro.core.shedding import ShedPolicy
from repro.faultinject import CrashError, FaultInjector, forge_event
from repro.ingest import GatewayConfig, IngestGateway
from repro.ingest.server import HARD_PRESSURE, RETRY_AFTER
from repro.ingest.schema import dump_schema
from repro.metrics import compare_keys
from repro.obs import MetricsRegistry, Tracer
from repro.obs import trace as stages

from helpers import MatchTap, delivered_once, delivery_log
from ingest_helpers import make_schema


QUERY = "PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 20"


def make_gateway(directory=None, slack=2, k=4, fault=None, shed=None,
                 tracer=None, metrics=None, **config_kwargs):
    pattern = parse(QUERY)
    config = GatewayConfig(
        make_schema(slack=slack),
        liveness_timeout=config_kwargs.pop("liveness_timeout", 5.0),
        **config_kwargs,
    )
    return IngestGateway(
        lambda: OutOfOrderEngine(pattern, k=k, shed=shed),
        config,
        directory=directory,
        fault=fault,
        tracer=tracer,
        metrics=metrics,
    )


# -- the ladder -------------------------------------------------------------------------


def test_admit_feed_and_match(tmp_path):
    gateway = make_gateway(tmp_path)
    assert gateway.admit_frame("s1", "A", {"ts": 1, "x": 7}, now=0.0)["status"] == "admitted"
    assert gateway.admit_frame("s1", "B", {"ts": 3, "x": 7}, now=0.1)["status"] == "admitted"
    gateway.sync_acks()
    gateway.seal()
    assert len(delivered_once(tmp_path)) == gateway.stats()["matches"] == 1
    assert not hasattr(gateway, "results")  # delivered matches are read from the log


def test_callers_attrs_are_not_the_fed_events(tmp_path):
    """admit_frame decides now and feeds at the commit: a caller that
    reuses its attrs dict in between must not change what is fed."""
    gateway = make_gateway(tmp_path)
    with gateway.runner:
        fed = []

        class FeedTap(MatchTap):
            def feed(self, elements):
                fed.extend(elements)
                return super().feed(elements)

        FeedTap(gateway)
        attrs = {"ts": 1, "x": 7}
        assert gateway.admit_frame("s1", "A", attrs, now=0.0)["status"] == "admitted"
        attrs["x"] = 8
        attrs["ts"] = 2
        gateway.sync_acks()
        event = next(element for element in fed if isinstance(element, Event))
        assert (event.ts, event.attrs) == (1, {"ts": 1, "x": 7})
        assert read_wal_elements(tmp_path)[0].attrs == {"ts": 1, "x": 7}


def test_duplicates_are_counted_not_refed(tmp_path):
    gateway = make_gateway(tmp_path)
    for _ in range(3):
        gateway.admit_frame("s1", "A", {"ts": 1, "x": 7}, now=0.0)
    gateway.admit_frame("s1", "B", {"ts": 3, "x": 7}, now=0.1)
    gateway.seal()
    assert gateway.admission.admitted == 2
    assert gateway.admission.duplicates == 2
    # The duplicate A never double-matched.
    assert len(delivered_once(tmp_path)) == gateway.stats()["matches"] == 1


def test_one_fact_over_two_sources_is_delivered_once(tmp_path):
    """The idempotency id names no source: the same frames over two
    connections are one set of events, and the match is delivered once."""
    gateway = make_gateway(tmp_path)
    for source in ("s1", "s2"):
        gateway.admit_frame(source, "A", {"ts": 1, "x": 7}, now=0.0)
    for source in ("s1", "s2"):
        gateway.admit_frame(source, "B", {"ts": 5, "x": 7}, now=0.1)
    gateway.seal()
    assert len(delivery_log(tmp_path)) == gateway.stats()["matches"] == 1
    assert gateway.admission.admitted == gateway.admission.duplicates == 2


def test_quarantine_parity_with_engine_side_validation(tmp_path):
    """Gateway-side quarantine produces the same QualityReport accounting
    as feeding the malformed stream to an engine under QUARANTINE."""
    pattern = parse(QUERY)
    good = [
        Event("A", 1, {"x": 7}), Event("B", 3, {"x": 7}),
        Event("A", 5, {"x": 8}), Event("B", 9, {"x": 8}),
    ]
    bad = [forge_event("A", -5, attrs={"x": 7}), forge_event("", 6, attrs={"x": 8})]
    stream = [good[0], bad[0], good[1], good[2], bad[1], good[3]]

    engine = OutOfOrderEngine(pattern, k=4)
    engine.validation = ValidationPolicy.QUARANTINE
    engine.run(stream)

    gateway = make_gateway(tmp_path)
    for index, event in enumerate(stream):
        attrs = dict(event.attrs)
        attrs["ts"] = event.ts
        gateway.admit_frame("s1", event.etype, attrs, now=float(index))
    gateway.seal()

    assert gateway.admission.quarantined == engine.stats.events_quarantined == 2
    engine_report = compare_keys(
        OfflineOracle(pattern).evaluate_set(good),
        engine.result_set(),
        quarantined=engine.stats.events_quarantined,
    )
    # The gateway mints schema-derived eids, so its oracle truth must be
    # built from schema-built events for match keys to line up.
    schema = make_schema(slack=2)
    schema_good = [
        schema.build_event(e.etype, dict(e.attrs, ts=e.ts)) for e in good
    ]
    gateway_report = compare_keys(
        OfflineOracle(pattern).evaluate_set(schema_good),
        delivered_once(tmp_path),
        quarantined=gateway.admission.quarantined,
    )
    assert gateway_report.quarantined == engine_report.quarantined
    assert gateway_report.recall == engine_report.recall


# -- watermarks and liveness ------------------------------------------------------------


def test_watermarks_merge_into_punctuation(tmp_path):
    gateway = make_gateway(tmp_path, slack=0)
    with gateway.runner:
        gateway.admit_frame("s1", "A", {"ts": 10, "x": 1}, now=0.0)
        # A frame is not punctuated until its cohort commits...
        assert gateway.engine.stats.punctuations_in == 0
        gateway.sync_acks()
        assert gateway.engine.stats.punctuations_in == 1  # ...then the merge seals
        assert gateway.liveness.watermarks.emitted == 9
        # A late joiner is floored at the emitted mark: no regression...
        gateway.admit_frame("s2", "A", {"ts": 4, "x": 2}, now=0.0)
        assert gateway.liveness.merged_watermark() == 9
        # ...and once past the floor it participates in the min-merge: s1
        # (still at 9) holds the mark back while s2 runs ahead.
        gateway.admit_frame("s2", "B", {"ts": 30, "x": 2}, now=0.1)
        assert gateway.liveness.merged_watermark() == 9
        gateway.sync_acks()
        assert gateway.engine.stats.punctuations_in == 1  # nothing advanced
        # One cohort, two frames, one punctuation: the later mark subsumes
        # the earlier one.
        gateway.admit_frame("s1", "B", {"ts": 15, "x": 1}, now=0.2)
        gateway.admit_frame("s1", "B", {"ts": 20, "x": 1}, now=0.2)
        assert gateway.liveness.merged_watermark() == 19
        gateway.sync_acks()
        assert gateway.engine.stats.punctuations_in == 2
        assert gateway.liveness.watermarks.emitted == 19


def test_degraded_source_unstalls_punctuation(tmp_path):
    gateway = make_gateway(tmp_path, slack=0, liveness_timeout=5.0)
    with gateway.runner:
        gateway.admit_frame("slow", "A", {"ts": 5, "x": 1}, now=0.0)
        gateway.admit_frame("fast", "A", {"ts": 100, "x": 2}, now=6.0)
        assert gateway.liveness.merged_watermark() == 4  # stalled on slow
        transitions = gateway.tick(now=6.5)
        assert [t.source for t in transitions] == ["slow"]
        assert gateway.liveness.merged_watermark() == 99  # fence released the seal
        assert gateway.liveness.degraded_total == 1


def test_recovered_source_cannot_drag_punctuation_backward(tmp_path):
    gateway = make_gateway(tmp_path, slack=0, liveness_timeout=5.0)
    with gateway.runner:
        gateway.admit_frame("slow", "A", {"ts": 5, "x": 1}, now=0.0)
        gateway.admit_frame("fast", "A", {"ts": 100, "x": 2}, now=6.0)
        gateway.tick(now=6.5)
        mark_before = gateway.liveness.merged_watermark()
        # slow wakes up with stale data: admitted, but late for the engine.
        ack = gateway.admit_frame("slow", "A", {"ts": 6, "x": 3}, now=7.0)
        assert ack["status"] == "admitted"
        assert gateway.liveness.merged_watermark() >= mark_before
        gateway.sync_acks()  # the engine sees the frame when its cohort commits
        assert gateway.engine.stats.late_dropped == 1
        assert gateway.liveness.recovered_total == 1


def test_transitions_are_journalled_traced_and_counted(tmp_path):
    tracer = Tracer()
    registry = MetricsRegistry()
    gateway = make_gateway(
        tmp_path, slack=0, liveness_timeout=5.0, tracer=tracer, metrics=registry
    )
    with gateway.runner:
        gateway.admit_frame("s1", "A", {"ts": 5, "x": 1}, now=0.0)
        gateway.tick(now=10.0)
        gateway.admit_frame("s1", "A", {"ts": 6, "x": 1}, now=11.0)

        recorded = [span.stage for span in tracer.spans()]
        assert stages.SOURCE_DEGRADED in recorded
        assert stages.SOURCE_RECOVERED in recorded
        assert registry.get("repro_ingest_degraded_total").value == 1
        assert registry.get("repro_ingest_recovered_total").value == 1

        journal = [
            json.loads(line)
            for line in (tmp_path / "gateway.jsonl").read_text().splitlines()
        ]
        statuses = [r["status"] for r in journal if r["kind"] == "transition"]
        assert statuses == ["degraded", "live"]


def test_one_merged_watermark_gauge_follows_a_reconnect(tmp_path):
    registry = MetricsRegistry()
    gateway = make_gateway(tmp_path, slack=0, liveness_timeout=5.0, metrics=registry)
    with gateway.runner:
        gateway.admit_frame("slow", "A", {"ts": 5, "x": 1}, now=0.0)
        gateway.admit_frame("fast", "A", {"ts": 100, "x": 2}, now=6.0)
        gateway.tick(now=6.5)  # slow is degraded and fenced; the tick commits
        gateway.admit_frame("fast", "A", {"ts": 150, "x": 2}, now=7.0)
        assert gateway.liveness.merged_watermark() == 149
        gateway.connect_source("slow", now=7.5)  # recovers, floored; no commit
        assert gateway.liveness.merged_watermark() == 99
        gauge = registry.get("repro_gateway_merged_watermark")
        assert gauge.value == gateway.liveness.merged_watermark()
        assert registry.get("repro_ingest_merged_watermark") is None


# -- backpressure -----------------------------------------------------------------------


def test_backpressure_throttles_then_refuses(tmp_path):
    shed = ShedPolicy.drop_oldest(10)
    gateway = make_gateway(tmp_path, shed=shed)
    acks = [
        gateway.admit_frame("s1", "A", {"ts": t, "x": t}, now=float(t))
        for t in range(12)
    ]
    throttled = [a for a in acks if a["status"] == "admitted" and "throttle" in a]
    busy = [a for a in acks if a["status"] == "busy"]
    assert throttled, "soft band never engaged"
    assert busy, "hard threshold never refused"
    assert all(a["retry_after"] == RETRY_AFTER for a in busy)
    assert gateway.busy_total == len(busy)
    # A refused frame was never admitted: no dedupe entry, no feed.
    assert gateway.admission.admitted == len(acks) - len(busy)


def test_busy_frames_can_be_retried_after_drain(tmp_path):
    shed = ShedPolicy.drop_oldest(6)
    gateway = make_gateway(tmp_path, slack=0, shed=shed)
    with gateway.runner:
        refused = None
        for t in range(10):
            ack = gateway.admit_frame("s1", "A", {"ts": t, "x": t}, now=float(t))
            if ack["status"] == "busy":
                refused = t
                break
        assert refused is not None
        # A watermark assertion is not an event: it bypasses admission, so a
        # saturated gateway can still make seal progress and drain state...
        gateway.assert_watermark("s1", refused + 30, now=50.0)
        gateway.sync_acks()  # the transport commits a watermark op's cohort too
        assert gateway.pressure() < HARD_PRESSURE
        retry = gateway.admit_frame("s1", "A", {"ts": refused, "x": refused}, now=51.0)
        # ...and the retried frame is admitted (not a duplicate: it was never fed).
        assert retry["status"] == "admitted"


def test_backpressure_sees_the_pending_cohort(tmp_path):
    """State only grows at a commit; the ladder must not go blind until then."""
    shed = ShedPolicy.drop_oldest(10)
    gateway = make_gateway(tmp_path, shed=shed)
    with gateway.runner:
        statuses, pressures = [], []
        for t in range(12):  # one cohort: no sync_acks in between
            ack = gateway.admit_frame("s1", "A", {"ts": t, "x": t}, now=float(t))
            statuses.append("throttle" if "throttle" in ack else ack["status"])
            pressures.append(gateway.pressure())
        assert gateway.engine.state_size() == 0  # nothing was fed yet
        assert statuses == ["admitted"] * 7 + ["throttle"] * 3 + ["busy"] * 2
        assert pressures == sorted(pressures) and pressures[-1] >= HARD_PRESSURE
        gateway.sync_acks()
        assert gateway.engine.state_size() == 10 and gateway.pressure() >= HARD_PRESSURE


def test_no_shed_policy_means_no_backpressure(tmp_path):
    gateway = make_gateway(tmp_path)
    assert gateway.pressure() == 0.0


# -- crash and recovery -----------------------------------------------------------------


def test_crash_is_surfaced_and_recovery_dedupes(tmp_path):
    fault = FaultInjector(crash_at=[1])
    first = make_gateway(tmp_path, fault=fault)
    first.admit_frame("s1", "A", {"ts": 1, "x": 7}, now=0.0)
    first.sync_acks()
    # Admission only decides; the crash point fires where the cohort is
    # logged and fed — the committing call.
    assert first.admit_frame("s1", "B", {"ts": 3, "x": 7}, now=0.1)["status"] == "admitted"
    with pytest.raises(CrashError):
        first.sync_acks()
    assert first.crashed
    with pytest.raises(ReproError):
        first.admit_frame("s1", "B", {"ts": 3, "x": 7}, now=0.2)

    second = make_gateway(tmp_path)
    # The crash fired *after* the WAL flush, so both frames were logged:
    # recovery replays both into the engine and both redeliveries dedupe.
    assert second.recovered_frames == 2
    assert second.admit_frame("s1", "A", {"ts": 1, "x": 7}, now=1.0)["status"] == "duplicate"
    assert second.admit_frame("s1", "B", {"ts": 3, "x": 7}, now=1.1)["status"] == "duplicate"
    second.seal()
    # Delivered by the restart's replay: counted, logged, and not kept.
    assert second.stats()["matches"] == len(delivered_once(tmp_path)) == 1
    assert second.runner.matches == []


def test_source_record_is_durable_before_the_first_ack(tmp_path):
    """The ``source`` first-sighting record is the one journal line a
    restart depends on: it is on disk when the admitting call returns,
    before the source's first frame is even committed, let alone acked."""
    first = make_gateway(tmp_path)
    first.admit_frame("s1", "A", {"ts": 1, "x": 7}, now=0.0)
    journal = (tmp_path / "gateway.jsonl").read_text(encoding="utf-8")
    assert {"kind": "source", "source": "s1"} in map(json.loads, journal.splitlines())
    first.sync_acks()  # the ack goes out after this; then SIGKILL

    second = make_gateway(tmp_path)
    assert second.recovered_frames == 1
    assert second.liveness.status_of("s1") is not None  # re-registered, holds the merge
    for gateway in (first, second):
        gateway.seal()


def test_a_gateway_keeps_no_match_it_has_delivered(tmp_path):
    """Matches are output, not state — at the runner and the gateway too."""
    durable, memory = make_gateway(tmp_path), make_gateway(None)
    assert not hasattr(memory.runner, "matches")
    tap = MatchTap(memory)
    for cohort in range(40):
        for gateway in (durable, memory):
            ts = 2 * cohort
            gateway.admit_frame("s1", "A", {"ts": ts, "x": cohort % 3}, now=0.0)
            gateway.admit_frame("s1", "B", {"ts": ts + 1, "x": cohort % 3}, now=0.0)
            gateway.sync_acks()
        assert durable.runner.matches == durable.runner.emissions == []
        for gateway in (durable, memory):
            assert gateway.engine.results == gateway.engine.emissions == []
    for gateway in (durable, memory):
        gateway.seal()
        assert gateway.engine.results == gateway.engine.emissions == []
    assert durable.runner.matches == durable.runner.emissions == []
    delivered = delivered_once(tmp_path)
    assert durable.stats()["matches"] == memory.stats()["matches"] == len(delivered) > 30
    assert {match.key() for match in tap.matches} == delivered


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("field", ["dedupe_window", "checkpoint_every"])
def test_config_rejects_non_positive_window_and_interval(field, value):
    """Refused at construction, not at the first event frame (where a
    socket handler would swallow the error and drop the connection)."""
    with pytest.raises(ConfigurationError, match=f"{field} must be >= 1"):
        GatewayConfig(make_schema(slack=2), **{field: value})


def test_serve_with_zero_dedupe_window_exits_2_before_listening(tmp_path, capsys):
    schema_path = tmp_path / "orders.schema.json"
    dump_schema(make_schema(slack=2), schema_path)
    code = cli_main([
        "serve", "--schema", str(schema_path), "--query", QUERY,
        "--k", "4", "--port", "0", "--dedupe-window", "0",
    ])
    out, err = capsys.readouterr()
    assert code == 2
    assert "dedupe_window must be >= 1" in err
    assert "gateway:" not in out  # never listened


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", ["liveness_timeout"])
def test_config_rejects_non_finite_timings(field, value):
    """A NaN liveness timeout would sleep the tick loop forever."""
    with pytest.raises(ConfigurationError, match=f"{field} must be finite and > 0"):
        GatewayConfig(make_schema(slack=2), **{field: value})


def test_serve_with_nan_liveness_timeout_exits_2_before_listening(tmp_path, capsys):
    schema_path = tmp_path / "orders.schema.json"
    dump_schema(make_schema(slack=2), schema_path)
    code = cli_main([
        "serve", "--schema", str(schema_path), "--query", QUERY,
        "--k", "4", "--port", "0", "--liveness-timeout", "nan",
    ])
    out, err = capsys.readouterr()
    assert code == 2
    assert "liveness_timeout must be finite and > 0" in err
    assert "gateway:" not in out  # never listened


def test_fault_without_directory_is_rejected():
    with pytest.raises(ReproError):
        make_gateway(None, fault=FaultInjector(crash_at=[0]))


def test_stats_shape(tmp_path):
    gateway = make_gateway(tmp_path)
    gateway.admit_frame("s1", "A", {"ts": 1, "x": 7}, now=0.0)
    gateway.admit_frame("s1", "bogus", {"ts": 1}, now=0.1)
    stats = gateway.stats()
    assert stats["admitted"] == 1 and stats["quarantined"] == 1
    assert stats["sources"]["s1"]["status"] == "live"
    assert stats["stream"] == "orders"
