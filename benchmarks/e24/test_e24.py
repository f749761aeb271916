"""Self-tests of the E24 harness (``pytest benchmarks/e24``, ~1 minute).

They run every workload at the ``--quick`` scale through the same code
paths as a full run and check the properties the numbers rest on: the
reference is exact, results are exact traced and untraced, the ledger
partitions busy time, spans nest, and an overloaded paced run is called
invalid instead of being reported.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

import compare
import run
import spec
from repro.core.parser import parse

from inputs import engine_workload, serve_plan
from reference import full_oracle_keys, reference_keys
from spans import Recorder, read_trace

QUICK = spec.RUN_SECONDS / 20


def test_benchmark_json_is_generated_from_spec():
    on_disk = json.loads((spec.REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert on_disk == spec.benchmark_json()
    assert all(m.bound <= 0.25 for m in spec.END_TO_END)
    assert [m.name for m in spec.END_TO_END].count("setup_s") == 1


@pytest.mark.parametrize("workload", ["serve-durable", "serve-paced", "engine-disorder"])
def test_slice_union_equals_full_oracle(workload):
    """The linear-time reference is the quadratic oracle, on a 20k prefix of
    each query shape (plain SEQ, negation under disorder, the paper's chain)."""
    params = spec.scaled(workload, spec.RUN_SECONDS)
    if params["kind"] == "serve":
        params["frames"] = 20000
        pattern, events = parse(params["query"]), serve_plan(params, 7).events
    else:
        params["events"] = 20000
        synthetic = engine_workload(params, 7)
        pattern, events = synthetic.query, synthetic.generate()[0]
    sliced = reference_keys(pattern, events)
    assert sliced and sliced == full_oracle_keys(pattern, events)
    # The slice size is a speed knob, never a correctness one.
    assert reference_keys(pattern, events[:5000], slice_events=97) == full_oracle_keys(
        pattern, events[:5000])


def test_quick_smoke_runs_all_workloads_exactly():
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(spec.HERE / "run.py"), "--quick", "--seed", "3",
         "--out", str(spec.OUT_DIR / "test-quick.json")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert time.monotonic() - started <= 20.0
    results = json.loads((spec.OUT_DIR / "test-quick.json").read_text(encoding="utf-8"))
    assert results["fingerprint"]["cpu_count"] and results["fingerprint"]["seed"] == 3
    for name in spec.WORKLOADS:
        (quick,) = results["workloads"][name]["runs"]
        assert quick["end_to_end"]["failed_share"] == 0
        for metric in spec.END_TO_END:
            assert quick["end_to_end"][metric.name] > 0, (name, metric.name)


@pytest.fixture(scope="module")
def traced_runs():
    return {
        name: run.run_workload(name, seed=5, seconds=QUICK, want_layers=True)
        for name in spec.WORKLOADS
    }


def test_traced_and_untraced_runs_deliver_identical_exact_matches(traced_runs):
    for name, traced in traced_runs.items():
        assert traced["verdict"]["failed"] == 0, (name, traced["verdict"])
        if spec.WORKLOADS[name]["kind"] == "serve":
            assert traced["verdict"]["traced_same_matches"]
        line = json.loads(run.contract_line(traced, "1"))
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == {m.name for m in spec.PER_LAYER}
        line = json.loads(run.contract_line(traced, "0"))
        assert set(line["metrics"]) == {m.name for m in spec.END_TO_END}


def test_ledger_sums_to_gateway_busy_time(traced_runs):
    for name, traced in traced_runs.items():
        layers = traced["per_layer"]
        if spec.WORKLOADS[name]["kind"] != "serve":
            assert all(layers.get(line, 0.0) == 0.0 for line in spec.LEDGER)
            continue
        ledger = sum(layers[line] for line in spec.LEDGER)
        assert ledger == pytest.approx(layers["_busy_us_per_frame"], rel=0.05)
        assert layers["ingest.server.transport_us"] > 0
    assert traced_runs["serve-memory"]["per_layer"]["core.recovery.checkpoint_us"] == 0
    assert traced_runs["serve-durable"]["per_layer"]["core.recovery.checkpoint_us"] > 0
    assert traced_runs["serve-durable"]["per_layer"]["core.recovery.recover_wal_elements"] > 0


def test_span_parents_nest(traced_runs):
    for name in spec.WORKLOADS:
        trace = read_trace(spec.OUT_DIR / f"{name}.trace.jsonl")
        spans = trace["spans"]
        assert spans and trace["meta"]["workload"] == name
        for label, start, end, parent in spans:
            assert 0 <= label < len(trace["meta"]["labels"]) and start <= end
            if parent >= 0:
                assert spans[parent][1] <= start and end <= spans[parent][2]


def test_recorder_self_time_is_span_minus_children():
    recorder = Recorder()
    inner = recorder.wrap(lambda: time.sleep(0.002), "inner")
    outer = recorder.wrap(lambda: (inner(), inner(), time.sleep(0.001)), "outer")
    outer()
    labels = recorder.summarize()["labels"]
    assert labels["inner"]["calls"] == 2 and labels["outer"]["calls"] == 1
    assert labels["outer"]["self_ns"] == (
        labels["outer"]["total_ns"] - labels["inner"]["total_ns"])
    assert recorder.summarize()["top_level_ns"] == labels["outer"]["total_ns"]


def test_overloaded_paced_run_is_flagged_invalid():
    params = spec.scaled("serve-paced", QUICK)
    params.update(rate=40000, frames=6000)  # ~10x what a durable gateway sustains
    run_dir = spec.OUT_DIR / "test-overload"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        overloaded = run.run_serve("serve-paced", params, 9, False, run_dir)
    finally:
        run.shutil.rmtree(run_dir, ignore_errors=True)
    assert overloaded["verdict"]["failed"] == 0  # still exact, just not on schedule
    assert overloaded["loadgen"]["loadgen.backlog_end"] > 0
    assert overloaded["valid"] is False


def _results(**metrics):
    runs = [{"end_to_end": dict(metrics, failed_share=metrics.get("failed_share", 0.0))}]
    return {"fingerprint": {}, "workloads": {"serve-memory": {"runs": runs}}}


def test_compare_verdicts():
    base = _results(frames_per_s=10000.0, ack_p50_ms=5.0)
    lines, bad = compare.compare(base, _results(frames_per_s=9500.0, ack_p50_ms=5.2))
    assert not bad and sum("within" in line for line in lines) == 2
    lines, bad = compare.compare(base, _results(frames_per_s=7000.0, ack_p50_ms=3.0))
    assert bad and any("WORSE" in l and "frames_per_s" in l for l in lines)
    assert any("better" in l and "ack_p50_ms" in l for l in lines)
    _, bad = compare.compare(base, _results(frames_per_s=10000.0, failed_share=0.001))
    assert bad
    noisy = _results(frames_per_s=10000.0)
    noisy["workloads"]["serve-memory"]["runs"] = [
        {"end_to_end": {"frames_per_s": v, "failed_share": 0.0}}
        for v in (7000.0, 9000.0, 11000.0, 13000.0)
    ]
    lines, bad = compare.compare(noisy, _results(frames_per_s=8000.0))
    assert not bad and any("unresolved" in line for line in lines)
