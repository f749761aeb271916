"""Network simulator (repro.netsim.simulator)."""

import pytest

from repro import ConfigurationError, Event, OfflineOracle, OutOfOrderEngine, parse
from repro.netsim import (
    ConstantLatency,
    FailureSchedule,
    NetworkSimulator,
    Topology,
    UniformLatency,
    simulate_star,
)
from repro.streams import SyntheticSource, measure_disorder


def star_streams(n=3, count=100, interval=2):
    return {
        f"s{i}": SyntheticSource(["A", "B", "C"], count, seed=i, interval=interval).take(count)
        for i in range(n)
    }


class TestDeliveryMechanics:
    def test_constant_latency_shifts_without_reordering_single_source(self):
        streams = {"s0": SyntheticSource(["A"], 50, seed=1).take(50)}
        result = simulate_star(streams, lambda i: ConstantLatency(10))
        assert measure_disorder(result.arrival_order).displaced == 0
        assert {delivery.transit for delivery in result.deliveries} == {10}

    def test_jitter_on_single_ordered_link_preserves_fifo(self):
        streams = {"s0": SyntheticSource(["A"], 200, seed=1).take(200)}
        result = simulate_star(streams, lambda i: UniformLatency(0, 50))
        # Per-link FIFO: one source over one link can never reorder.
        assert measure_disorder(result.arrival_order).displaced == 0

    def test_cross_source_jitter_causes_disorder(self):
        result = simulate_star(star_streams(4), lambda i: UniformLatency(0, 40), seed=3)
        assert measure_disorder(result.arrival_order).displaced > 0

    def test_event_set_preserved(self):
        streams = star_streams(3)
        result = simulate_star(streams, lambda i: UniformLatency(0, 20), seed=4)
        sent = sorted(e.eid for events in streams.values() for e in events)
        received = sorted(e.eid for e in result.arrival_order)
        assert sent == received

    def test_deterministic(self):
        streams = star_streams(3)
        first = simulate_star(streams, lambda i: UniformLatency(0, 20), seed=9)
        second = simulate_star(streams, lambda i: UniformLatency(0, 20), seed=9)
        assert [e.eid for e in first.arrival_order] == [
            e.eid for e in second.arrival_order
        ]

    def test_observed_bound_consistent_with_measure(self):
        result = simulate_star(star_streams(4), lambda i: UniformLatency(0, 60), seed=5)
        from repro.streams import required_k

        assert result.observed_disorder_bound() == required_k(result.arrival_order)

    def test_unordered_input_stream_rejected(self):
        simulator = NetworkSimulator(Topology.star(["s0"]))
        with pytest.raises(ConfigurationError):
            simulator.run({"s0": [Event("A", 5), Event("A", 3)]})

    def test_unknown_sink_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkSimulator(Topology.star(["s0"]), sink="nowhere")


class TestMultiHop:
    def test_latency_accumulates_over_hops(self):
        topo = Topology(["src", "relay", "sink"])
        topo.add_link("src", "relay", ConstantLatency(5))
        topo.add_link("relay", "sink", ConstantLatency(7))
        simulator = NetworkSimulator(topo)
        result = simulator.run({"src": [Event("A", 0)]})
        assert result.deliveries[0].arrived_at == 12


class TestFailures:
    def test_outage_holds_traffic_until_recovery(self):
        topo = Topology.star(["s0"])
        failures = FailureSchedule()
        failures.add_outage("s0", 10, 50)
        simulator = NetworkSimulator(topo, failures=failures)
        events = [Event("A", ts) for ts in range(0, 30, 5)]
        result = simulator.run({"s0": events})
        for delivery in result.deliveries:
            if 10 <= delivery.sent_at < 50:
                assert delivery.arrived_at >= 50

    def test_failure_burst_creates_disorder_across_sources(self):
        streams = star_streams(2, count=200, interval=1)
        failures = FailureSchedule()
        failures.add_outage("s0", 50, 120)
        result = simulate_star(streams, lambda i: ConstantLatency(0), failures=failures)
        assert measure_disorder(result.arrival_order).max_delay >= 60

    def test_sink_outage_delays_everything(self):
        topo = Topology.star(["s0"])
        failures = FailureSchedule()
        failures.add_outage("sink", 0, 100)
        simulator = NetworkSimulator(topo, failures=failures)
        result = simulator.run({"s0": [Event("A", 5)]})
        assert result.deliveries[0].arrived_at >= 100


class TestEndToEndWithEngine:
    def test_engine_with_simulated_k_matches_oracle(self):
        streams = star_streams(4, count=150)
        result = simulate_star(streams, lambda i: UniformLatency(0, 30), seed=6)
        pattern = parse("PATTERN SEQ(A a, B b, C c) WITHIN 15")
        truth = OfflineOracle(pattern).evaluate_set(result.arrival_order)
        engine = OutOfOrderEngine(pattern, k=result.observed_disorder_bound())
        engine.run(result.arrival_order)
        assert engine.result_set() == truth
        assert engine.stats.late_dropped == 0
