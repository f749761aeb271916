"""Metrics across subsystem boundaries: checkpoints, crash recovery,
the bench harness, and the CLI exporters."""

from __future__ import annotations

import json
import random

import pytest

from repro.bench import make_engine, run_cell
from repro.cli import main
from repro.core.engine import OutOfOrderEngine
from repro.core.event import Event
from repro.core.parser import parse
from repro.core.recovery import ResilientRunner
from repro.faultinject import CrashError, FaultInjector
from repro.obs.export import parse_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.streams import dump_trace

QUERY = "PATTERN SEQ(A a, B b, C c) WHERE a.x == c.x WITHIN 30"


def _trace(count=200, seed=9):
    rng = random.Random(seed)
    events = []
    for ts in range(1, count + 1):
        attrs = {"x": rng.randint(0, 3)}
        events.append(Event(rng.choice("ABC"), ts, attrs))
    keyed = [(e.ts + rng.randint(0, 4), i, e) for i, e in enumerate(events)]
    keyed.sort()
    return [e for __, __, e in keyed]


# -- snapshot / restore ----------------------------------------------------------


def test_engine_snapshot_carries_registry_state():
    pattern = parse(QUERY)
    engine = OutOfOrderEngine(pattern, k=5)
    registry = MetricsRegistry()
    engine.enable_observability(metrics=registry)
    arrival = _trace()
    for element in arrival[:100]:
        engine.feed(element)
    state = engine.snapshot()
    mid_value = registry.get("repro_events_total").value
    assert mid_value == 100

    for element in arrival[100:]:
        engine.feed(element)
    assert registry.get("repro_events_total").value == 200

    engine.restore(state)
    # Restore rewinds the SAME handle the engine registered.
    assert registry.get("repro_events_total").value == mid_value


def test_restored_engine_produces_same_metrics_as_straight_run():
    pattern = parse(QUERY)
    arrival = _trace()

    straight = OutOfOrderEngine(pattern, k=5)
    reg_straight = MetricsRegistry()
    straight.enable_observability(metrics=reg_straight)
    for element in arrival:
        straight.feed(element)
    straight.close()

    half = OutOfOrderEngine(pattern, k=5)
    reg_half = MetricsRegistry()
    half.enable_observability(metrics=reg_half)
    for element in arrival[:100]:
        half.feed(element)
    state = half.snapshot()

    resumed = OutOfOrderEngine(pattern, k=5)
    reg_resumed = MetricsRegistry()
    resumed.enable_observability(metrics=reg_resumed)
    resumed.restore(state)
    for element in arrival[100:]:
        resumed.feed(element)
    resumed.close()

    assert reg_resumed.snapshot_state() == reg_straight.snapshot_state()


# -- crash recovery --------------------------------------------------------------


def test_metrics_survive_crash_recovery(tmp_path):
    pattern = parse(QUERY)
    arrival = _trace()

    def build():
        engine = OutOfOrderEngine(pattern, k=5)
        engine.enable_observability(metrics=MetricsRegistry())
        return engine

    fault = FaultInjector(crash_at=[120])
    first = ResilientRunner(build(), tmp_path, checkpoint_every=25, fault=fault)
    with pytest.raises(CrashError):
        first.run(arrival)

    engine = build()
    registry = engine.observability.registry
    second = ResilientRunner(engine, tmp_path, checkpoint_every=25)
    second.run(arrival)

    # Flow metrics cover the WHOLE logical stream, not just post-crash.
    assert registry.get("repro_events_total").value == len(arrival)
    assert registry.get("repro_runner_recoveries_total").value == 1
    assert registry.get("repro_runner_replayed_total").value == second.replayed_elements

    # And they equal an uninterrupted instrumented run's flow counters.
    reference = OutOfOrderEngine(pattern, k=5)
    ref_registry = MetricsRegistry()
    reference.enable_observability(metrics=ref_registry)
    for element in arrival:
        reference.feed(element)
    reference.close()
    ref_state = ref_registry.snapshot_state()
    got_state = registry.snapshot_state()
    assert got_state["histograms"] == ref_state["histograms"]
    for name, payload in ref_state["counters"].items():
        assert got_state["counters"][name] == payload


# -- bench harness ---------------------------------------------------------------


def test_run_cell_metrics_option_adds_histogram_summaries():
    pattern = parse(QUERY)
    arrival = _trace()
    cell = run_cell(make_engine("ooo", pattern, k=5), arrival, metrics=True)
    assert "lat_hist_p50" in cell and "lat_hist_p99" in cell
    assert cell["metrics"]["counters"]["repro_events_total"]["value"] == len(arrival)
    plain = run_cell(make_engine("ooo", pattern, k=5), arrival)
    assert "metrics" not in plain
    assert plain["matches"] == cell["matches"]


# -- CLI -------------------------------------------------------------------------


class TestCliMetricsOut:
    @pytest.fixture
    def trace_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        dump_trace(_trace(), path)
        return str(path)

    def test_prometheus_and_jsonl_round_trip(self, tmp_path, trace_path):
        out = tmp_path / "metrics.jsonl"
        code = main(
            ["run", "--query", QUERY, "--trace", trace_path, "--k", "5",
             "--metrics-out", str(out), "--metrics-every", "50"]
        )
        assert code == 0

        records = [json.loads(line) for line in out.read_text().splitlines()]
        # The final boundary lands exactly on the cadence: the close-time
        # snapshot replaces the periodic one (no duplicate seq 200), and
        # it is the post-seal registry.
        assert [r["seq"] for r in records] == [50, 100, 150, 200]
        # Each line's payload feeds restore_state; the registry then
        # snapshots back to exactly the recorded dict.
        for record in records:
            registry = MetricsRegistry()
            registry.restore_state(record["metrics"])
            assert registry.snapshot_state() == record["metrics"]
            assert json.loads(json.dumps(record["metrics"])) == record["metrics"]

        samples = parse_prometheus((tmp_path / "metrics.jsonl.prom").read_text())
        assert samples["repro_events_total"] == 200
        final = records[-1]["metrics"]["counters"]["repro_matches_total"]["value"]
        assert samples["repro_matches_total"] == final

    def test_partial_final_interval_is_flushed(self, tmp_path):
        """A trace length off the cadence still ends with a snapshot."""
        path = tmp_path / "trace.jsonl"
        dump_trace(_trace(count=130), path)
        out = tmp_path / "metrics.jsonl"
        code = main(
            ["run", "--query", QUERY, "--trace", str(path), "--k", "5",
             "--metrics-out", str(out), "--metrics-every", "50"]
        )
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["seq"] for r in records] == [50, 100, 130]
        assert records[-1]["metrics"]["counters"]["repro_events_total"]["value"] == 130

    def test_final_only_snapshot_without_every(self, tmp_path, trace_path):
        out = tmp_path / "final.jsonl"
        code = main(
            ["run", "--query", QUERY, "--trace", trace_path, "--k", "5",
             "--metrics-out", str(out)]
        )
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 1
        assert records[0]["metrics"]["counters"]["repro_events_total"]["value"] == 200

    def test_resilient_run_with_metrics(self, tmp_path, trace_path):
        out = tmp_path / "resilient.jsonl"
        code = main(
            ["run", "--query", QUERY, "--trace", trace_path, "--k", "5",
             "--checkpoint-every", "40", "--checkpoint-dir", str(tmp_path / "ckpt"),
             "--crash-at", "100", "--metrics-out", str(out)]
        )
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        counters = records[-1]["metrics"]["counters"]
        assert counters["repro_events_total"]["value"] == 200
        assert counters["repro_runner_recoveries_total"]["value"] == 1
