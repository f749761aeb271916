"""Gateway observability: spans, the telemetry sidecar, flight dumps.

Everything here runs with metrics + flight ENABLED; the parity suite
(tests/property/test_property_ingest_obs.py) proves enabling them never
changes admission decisions or results.
"""

from __future__ import annotations

import json

import pytest

from repro import OutOfOrderEngine, parse
from repro.cli import main
from repro.faultinject import CrashError, FaultInjector
from repro.ingest import GatewayConfig, IngestClient, IngestGateway
from repro.ingest.server import serve_in_thread
from repro.obs import MetricsRegistry
from repro.obs.export import parse_prometheus
from repro.obs.flight import FlightRecorder, analyze_flight, load_flight
from repro.obs.httpserv import http_get
from repro.obs.span import ACK_STAGES, SPAN_FIELD, mint_span

from ingest_helpers import make_schema

QUERY = "PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 20"


def make_observed_gateway(directory=None, fault=None, telemetry_port=None,
                          shed=None, k=4, **config_kwargs):
    pattern = parse(QUERY)
    config = GatewayConfig(
        make_schema(slack=2),
        liveness_timeout=config_kwargs.pop("liveness_timeout", 5.0),
        telemetry_port=telemetry_port,
        **config_kwargs,
    )
    return IngestGateway(
        lambda: OutOfOrderEngine(pattern, k=k, shed=shed),
        config,
        directory=directory,
        fault=fault,
        metrics=MetricsRegistry(),
        flight=FlightRecorder(),
    )


# -- span attribution through admit_frame ------------------------------------------


def test_admit_frame_attributes_every_outcome(tmp_path):
    gateway = make_observed_gateway(tmp_path)
    span = mint_span(0.0)
    assert gateway.admit_frame("s1", "A", {"ts": 1, "x": 7}, now=0.0,
                               span=span)["status"] == "admitted"
    assert gateway.admit_frame("s1", "A", {"ts": 1, "x": 7}, now=0.1,
                               span=span)["status"] == "duplicate"
    assert gateway.admit_frame("s1", "bogus", {"ts": 2}, now=0.2)["status"] == "quarantined"
    gateway.sync_acks()

    spans = gateway._spans
    # Direct drives (no transport cohort) seal lazily; force the seals.
    record = spans.seal_cohort(1.0, 1.0, 1.0, 1.0)
    assert record is not None
    state = gateway.registry.snapshot_state()["histograms"]
    for stage in ACK_STAGES:
        assert state[f'repro_stage_seconds{{stage="{stage}"}}']["count"] >= 1


def test_emit_path_spans_close_on_match(tmp_path):
    gateway = make_observed_gateway(tmp_path)
    gateway.admit_frame("s1", "A", {"ts": 1, "x": 7}, now=0.0)
    gateway.admit_frame("s1", "B", {"ts": 3, "x": 7}, now=0.1)
    # Push the watermark far enough that the SEQ match seals and emits.
    for ts in (30, 60):
        gateway.assert_watermark("s1", ts, now=0.2)
    # Nothing is fed, so nothing is emitted, before the cohort commits...
    assert gateway.stats()["matches"] == 0
    state = gateway.registry.snapshot_state()["histograms"]
    assert state["repro_emit_hold_seconds"]["count"] == 0
    gateway.sync_acks()
    # ...and the commit closes the emit spans of both matched events at once.
    # The spans come from the list ``runner.feed`` returned: the runner
    # itself holds nothing once the gateway has taken the match.
    assert gateway.stats()["matches"] == 1
    assert gateway.runner.matches == []
    state = gateway.registry.snapshot_state()["histograms"]
    assert state["repro_emit_hold_seconds"]["count"] == 2


def test_lag_panel_tracks_sources(tmp_path):
    from repro.obs.export import render_prometheus

    gateway = make_observed_gateway(tmp_path)
    # The slow source registers first; the fast one then races ahead of
    # it (joining the other way round would floor "slow" at the already-
    # emitted mark, by design).
    gateway.admit_frame("slow", "A", {"ts": 10, "x": 2}, now=0.0)
    gateway.admit_frame("fast", "A", {"ts": 50, "x": 1}, now=0.1)
    gateway.sync_acks()  # the panel follows the merged mark: once per cohort
    samples = parse_prometheus(render_prometheus(gateway.registry))
    assert samples['repro_source_watermark{source="fast"}'] > samples[
        'repro_source_watermark{source="slow"}'
    ]
    assert samples['repro_source_lag{source="slow"}'] == 40
    assert samples['repro_source_lag{source="fast"}'] == 0


# -- the sidecar over a live socket ------------------------------------------------


def test_telemetry_endpoints_during_soak(tmp_path):
    gateway = make_observed_gateway(tmp_path, telemetry_port=0)
    handle = serve_in_thread(gateway)
    try:
        client = IngestClient("127.0.0.1", gateway.port, "s1", "orders")
        client.connect()
        for ts in range(1, 30):
            client.send("A" if ts % 2 else "B", {"ts": ts, "x": ts // 3})
        # Scrape WHILE the gateway lives, mid-stream.
        port = gateway.telemetry_port
        status, body = http_get("127.0.0.1", port, "/metrics")
        assert status == 200
        samples = parse_prometheus(body)
        assert samples["repro_ingest_admitted_total"] >= 1
        assert any(k.startswith("repro_stage_seconds") for k in samples)

        status, body = http_get("127.0.0.1", port, "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["band"] == "ok"
        assert health["live_sources"] == 1
        assert health["dedupe_ids"] >= 1  # one window, shared by every source

        status, body = http_get("127.0.0.1", port, "/sources")
        assert status == 200
        sources = json.loads(body)["sources"]
        assert sources["s1"]["status"] == "live"
        assert sources["s1"]["admitted"] >= 1
        assert sources["s1"]["fenced"] is False
        assert "dedupe_window" not in sources["s1"]

        status, body = http_get("127.0.0.1", port, "/nope")
        assert status == 404 and "/metrics" in body
        client.close()

        # The client-minted spans crossed the wire: transit was observed.
        status, body = http_get("127.0.0.1", port, "/metrics")
        samples = parse_prometheus(body)
        assert samples['repro_stage_seconds_count{stage="transit"}'] >= 1
    finally:
        handle.stop()


def test_stage_sums_equal_e2e_over_socket(tmp_path):
    gateway = make_observed_gateway(tmp_path, telemetry_port=0)
    handle = serve_in_thread(gateway)
    try:
        client = IngestClient("127.0.0.1", gateway.port, "s1", "orders")
        client.connect()
        for ts in range(1, 60):
            client.send("A" if ts % 2 else "B", {"ts": ts, "x": ts // 3})
        client.close()
        cohorts = list(gateway._spans.cohorts)
        assert cohorts
        for record in cohorts:
            total = sum(record["stage_sums"].values())
            assert total == pytest.approx(record["e2e_sum"], rel=0.05, abs=1e-9)
    finally:
        handle.stop()


def test_telemetry_port_raises_when_disabled(tmp_path):
    from repro.core.errors import ReproError

    gateway = make_observed_gateway(tmp_path)
    with pytest.raises(ReproError):
        gateway.telemetry_port


# -- flight dumps ------------------------------------------------------------------


def test_crash_dumps_flight_and_explain_reads_it(tmp_path, capsys):
    fault = FaultInjector(crash_at=[3])
    gateway = make_observed_gateway(tmp_path, fault=fault)
    gateway.admit_frame("s1", "A", {"ts": 1, "x": 7}, now=0.0)
    gateway.admit_frame("s1", "B", {"ts": 3, "x": 7}, now=0.1)
    gateway.sync_acks()
    gateway.admit_frame("s1", "A", {"ts": 5, "x": 8}, now=0.2)
    with pytest.raises(CrashError):
        gateway.sync_acks()  # the crash point fires at the commit

    path = tmp_path / "flight.jsonl"
    assert path.exists()
    header, records = load_flight(path.read_text(encoding="utf-8"))
    assert header["reason"] == "crash"
    assert header["stream"] == "orders"
    kinds = {record.kind for record in records}
    assert "crash" in kinds and "admit" in kinds

    code = main(["explain", "--flight", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "flight recording:" in out
    assert "proximate stall:" in out
    assert "reason: crash" in out


def test_manual_dump_truncates_previous(tmp_path):
    gateway = make_observed_gateway(tmp_path)
    gateway.admit_frame("s1", "A", {"ts": 1, "x": 7}, now=0.0)
    gateway.dump_flight("first")
    gateway.admit_frame("s1", "B", {"ts": 3, "x": 7}, now=0.1)
    gateway.dump_flight("second")
    text = (tmp_path / "flight.jsonl").read_text(encoding="utf-8")
    # Exactly one header: the second dump replaced the first.
    headers = [
        line for line in text.splitlines()
        if line.strip() and "flight" in json.loads(line)
    ]
    assert len(headers) == 1
    header, records = load_flight(text)
    assert header["reason"] == "second"
    assert len(records) == header["records"]


def test_sigterm_handler_dumps_and_terminates(tmp_path):
    gateway = make_observed_gateway(tmp_path)
    gateway.admit_frame("s1", "A", {"ts": 1, "x": 7}, now=0.0)
    gateway._on_sigterm()
    assert gateway.terminated
    header, records = load_flight(
        (tmp_path / "flight.jsonl").read_text(encoding="utf-8")
    )
    assert header["reason"] == "sigterm"
    assert records[-1].kind == "sigterm"


def test_fence_records_reach_the_flight(tmp_path):
    gateway = make_observed_gateway(tmp_path, liveness_timeout=1.0)
    gateway.admit_frame("s1", "A", {"ts": 1, "x": 7}, now=0.0)
    gateway.tick(now=10.0)  # silent past the timeout: fence
    gateway.admit_frame("s1", "A", {"ts": 2, "x": 8}, now=10.5)  # recovery
    gateway.dump_flight()
    header, records = load_flight(
        (tmp_path / "flight.jsonl").read_text(encoding="utf-8")
    )
    kinds = [record.kind for record in records]
    assert "fence" in kinds and "unfence" in kinds
    report = analyze_flight(header, records)
    # Recovered before the end: the fence must not be named the stall.
    assert report.verdict != "fenced source"


def test_retractions_reach_the_flight_when_a_receiver_takes_them(tmp_path):
    pattern = parse(
        "PATTERN SEQ(A a, !B b, A c) WHERE a.x == c.x AND b.x == a.x WITHIN 20"
    )
    gateway = IngestGateway(
        lambda: OutOfOrderEngine(pattern, k=4, speculative=True),
        GatewayConfig(make_schema(slack=2), liveness_timeout=5.0),
        directory=tmp_path,
        flight=FlightRecorder(),
    )
    taken = []
    runner = gateway.runner

    class SpeculationTap:  # a receiver of the speculative stream
        def feed(self, elements):
            out = runner.feed(elements)
            taken.append(gateway.engine.take_speculation())
            return out

        def __getattr__(self, name):
            return getattr(runner, name)

    gateway.runner = SpeculationTap()
    gateway.admit_frame("s1", "A", {"ts": 1, "x": 7}, now=0.0)
    gateway.admit_frame("s1", "A", {"ts": 5, "x": 7}, now=0.1)  # speculated
    gateway.admit_frame("s1", "B", {"ts": 3, "x": 7}, now=0.2)  # refutes it
    gateway.sync_acks()
    gateway.assert_watermark("s1", 40, now=0.3)  # seals: the retraction
    gateway.sync_acks()
    assert sum(len(retractions) for __, retractions in taken) == 1
    assert gateway.engine.speculation.retractions == []
    gateway.dump_flight()
    __, records = load_flight((tmp_path / "flight.jsonl").read_text(encoding="utf-8"))
    assert [r.value for r in records if r.kind == "retraction"] == [1]


def test_explain_flight_missing_dump(tmp_path, capsys):
    code = main(["explain", "--flight", str(tmp_path / "nope.jsonl")])
    assert code == 1
    assert "no flight dump" in capsys.readouterr().out


def test_disabled_observability_writes_nothing(tmp_path):
    pattern = parse(QUERY)
    gateway = IngestGateway(
        lambda: OutOfOrderEngine(pattern, k=4),
        GatewayConfig(make_schema(slack=2), liveness_timeout=5.0),
        directory=tmp_path,
    )
    gateway.admit_frame("s1", "A", {"ts": 1, "x": 7}, now=0.0)
    gateway.dump_flight()  # no recorder: a no-op, not an error
    assert not (tmp_path / "flight.jsonl").exists()
    assert gateway._spans is None and gateway._lag_panel is None
