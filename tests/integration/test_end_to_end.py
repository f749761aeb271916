"""Integration tests: full pipelines from generator through network to engines.

These exercise the exact paths the benchmarks and examples use, pinning
the cross-module contracts: workload → network simulation → disorder →
engine → metrics → quality-vs-oracle.
"""

import pytest

from repro import (
    CompositeEventFactory,
    InOrderEngine,
    OfflineOracle,
    OutOfOrderEngine,
    QueryPlan,
    ReorderingEngine,
)
from repro.bench import make_engine, oracle_truth, run_cell
from repro.metrics import compare_keys, summarize_arrival_latency
from repro.streams import (
    RandomDelayModel,
    dump_trace,
    load_trace,
    required_k,
    star_arrival,
)
from repro.workloads import (
    IntrusionGenerator,
    RfidStoreGenerator,
    SyntheticWorkload,
    brute_force_query,
    exfiltration_query,
    shoplifting_query,
)


class TestRfidPipeline:
    @pytest.fixture(scope="class")
    def setup(self):
        trace = RfidStoreGenerator(items=250, shoplift_rate=0.08, seed=31).generate()
        arrival, _times = star_arrival(trace.by_reader, (0, 120), seed=32)
        return trace, arrival

    def test_ooo_engine_detects_all_shoplifting_under_network_disorder(self, setup):
        trace, arrival = setup
        query = shoplifting_query(2000)
        engine = OutOfOrderEngine(query, k=required_k(arrival))
        engine.run(arrival)
        assert {m.events[0]["tag"] for m in engine.results} == trace.shoplifted_tags

    def test_inorder_engine_misbehaves_on_same_input(self, setup):
        trace, arrival = setup
        query = shoplifting_query(2000)
        truth = OfflineOracle(query).evaluate_set(trace.merged)
        engine = InOrderEngine(query)
        engine.run(arrival)
        report = compare_keys(truth, engine.result_set())
        assert not report.exact  # misses and/or false alarms

    def test_reorder_engine_correct_but_slower_to_answer(self, setup):
        trace, arrival = setup
        query = shoplifting_query(2000)
        k = required_k(arrival)
        reorder = ReorderingEngine(query, k=k)
        reorder.run(arrival)
        assert {m.events[0]["tag"] for m in reorder.results} == trace.shoplifted_tags
        ooo = OutOfOrderEngine(query, k=k)
        ooo.run(arrival)
        slow = summarize_arrival_latency(reorder.emissions, arrival)
        fast = summarize_arrival_latency(ooo.emissions, arrival)
        assert fast.mean <= slow.mean

    def test_alert_plan_produces_composite_alarms(self, setup):
        trace, arrival = setup
        query = shoplifting_query(2000)
        plan = QueryPlan(
            OutOfOrderEngine(query, k=required_k(arrival)),
            transformation=CompositeEventFactory(
                "SHOPLIFT_ALERT", {"tag": "s.tag", "exit_ts": "e.ts"}
            ),
        )
        alerts = plan.run(arrival)
        assert {a["tag"] for a in alerts} == trace.shoplifted_tags
        assert all(a.etype == "SHOPLIFT_ALERT" for a in alerts)


class TestIntrusionPipeline:
    @pytest.fixture(scope="class")
    def setup(self):
        trace = IntrusionGenerator(hosts=25, duration=8000, attackers=3, seed=41).generate()
        arrival = RandomDelayModel(0.3, 60, seed=42).apply(trace.events)
        return trace, arrival

    def test_brute_force_detection_under_disorder(self, setup):
        trace, arrival = setup
        query = brute_force_query(300)
        engine = OutOfOrderEngine(query, k=60)
        engine.run(arrival)
        detected = {m.events[0]["src"] for m in engine.results}
        assert trace.brute_force_sources <= detected
        truth = OfflineOracle(query).evaluate_set(trace.events)
        assert engine.result_set() == truth

    def test_exfiltration_negation_under_disorder(self, setup):
        trace, arrival = setup
        query = exfiltration_query(500)
        engine = OutOfOrderEngine(query, k=60)
        engine.run(arrival)
        truth = OfflineOracle(query).evaluate_set(trace.events)
        assert engine.result_set() == truth
        detected = {m.events[0]["src"] for m in engine.results}
        assert trace.exfiltration_sources <= detected

    def test_speculative_alerts_faster_with_net_parity(self, setup):
        trace, arrival = setup
        query = exfiltration_query(500)
        speculative = OutOfOrderEngine(query, k=60, speculative=True)
        speculative.run(arrival)
        truth = OfflineOracle(query).evaluate_set(trace.events)
        assert speculative.speculation.net_keys() == truth == speculative.result_set()
        fast = summarize_arrival_latency(speculative.speculation.emissions, arrival)
        sealed = summarize_arrival_latency(speculative.emissions, arrival)
        assert fast.mean < sealed.mean


class TestFailureBurstPipeline:
    def test_recovery_burst_handled(self):
        trace = RfidStoreGenerator(items=150, seed=51, arrival_span=20_000).generate()
        counter_down = {"COUNTER_READ": [(5_000, 9_000)]}
        arrival, _times = star_arrival(trace.by_reader, (0, 10), counter_down, seed=52)
        query = shoplifting_query(2000)
        k = required_k(arrival)
        assert k >= 3000  # the outage dominates disorder
        engine = OutOfOrderEngine(query, k=k)
        engine.run(arrival)
        assert {m.events[0]["tag"] for m in engine.results} == trace.shoplifted_tags


class TestBenchRunnerHarness:
    @pytest.fixture(scope="class")
    def workload(self):
        return SyntheticWorkload(
            event_count=1500, disorder=RandomDelayModel(0.25, 30, seed=61), seed=62
        )

    def test_run_cell_reports_quality_and_latency(self, workload):
        ordered, arrival = workload.generate()
        truth = oracle_truth(workload.query, ordered)
        cell = run_cell(make_engine("ooo", workload.query, k=30), arrival, truth)
        assert cell["recall"] == 1.0
        assert cell["precision"] == 1.0
        assert cell["events"] == 1500
        assert cell["seconds"] > 0

    def test_engine_registry_covers_all_strategies(self, workload):
        ordered, arrival = workload.generate()
        truth = oracle_truth(workload.query, ordered)
        recalls = {}
        for name in ("ooo", "inorder", "reorder", "speculative"):
            engine = (
                make_engine("ooo", workload.query, k=30, speculative=True)
                if name == "speculative"
                else make_engine(name, workload.query, k=30)
            )
            recalls[name] = run_cell(engine, arrival, truth)["recall"]
        assert recalls["ooo"] == recalls["reorder"] == recalls["speculative"] == 1.0
        assert recalls["inorder"] < 1.0

    def test_unknown_engine_name_rejected(self, workload):
        from repro import ConfigurationError

        with pytest.raises(ConfigurationError):
            make_engine("nope", workload.query)
        with pytest.raises(ConfigurationError):
            make_engine("reorder", workload.query, k=None)

    def test_removed_engine_name_rejected_with_the_surviving_names(self, workload):
        """E24's launcher reports a removed family from this error instead
        of crashing: a ReproError that lists what can still be built."""
        from repro import ConfigurationError, ReproError
        from repro.bench import ENGINE_NAMES

        with pytest.raises(ConfigurationError) as refusal:
            make_engine("pipeline", workload.query, k=30, workers=2)
        assert isinstance(refusal.value, ReproError)
        assert "unknown engine 'pipeline'" in str(refusal.value)
        assert str(ENGINE_NAMES) in str(refusal.value)

    def test_parallel_engine_name_rejected_with_the_surviving_names(self, workload):
        """The deleted close-time worker-pool family is an unknown name: the
        ReproError E24's family loop prints, not a crash."""
        from repro import ConfigurationError, ReproError
        from repro.bench import ENGINE_NAMES

        assert "parallel" not in ENGINE_NAMES
        with pytest.raises(ConfigurationError) as refusal:
            make_engine("parallel", workload.query, k=30, workers=2)
        assert isinstance(refusal.value, ReproError)
        assert "unknown engine 'parallel'" in str(refusal.value)
        assert str(ENGINE_NAMES) in str(refusal.value)

    @pytest.mark.parametrize("name", ["ooo", "inorder", "reorder", "partitioned"])
    @pytest.mark.parametrize("extra", [{"workers": 4}, {"backend": "process"}])
    def test_removed_worker_options_rejected(self, workload, name, extra):
        from repro import ConfigurationError

        with pytest.raises(ConfigurationError, match=f"no option {next(iter(extra))}"):
            make_engine(name, workload.query, k=30, **extra)


class TestTraceReplayRegression:
    def test_recorded_pipeline_is_replayable(self, tmp_path):
        workload = SyntheticWorkload(
            event_count=400, disorder=RandomDelayModel(0.3, 20, seed=71), seed=72
        )
        __, arrival = workload.generate()
        path = tmp_path / "arrival.jsonl"
        dump_trace(arrival, path)
        first = OutOfOrderEngine(workload.query, k=20)
        first.run(arrival)
        second = OutOfOrderEngine(workload.query, k=20)
        second.run(load_trace(path))
        assert first.result_set() == second.result_set()
        assert first.stats.as_dict() == second.stats.as_dict()
