"""Failure-induced disorder meets K-slack estimation (S3 integration).

The paper's second disorder cause: a node outage holds traffic, and
recovery releases it as a burst of stale events.  These tests pin the
full chain — outage → bursty disorder signature at the sink → K
estimated on a training prefix absorbing the burst without a late drop
— and the outage → crash-point mapping that turns simulated failures
into engine crash/restart drills.
"""

from repro import (
    Event,
    FaultInjector,
    OfflineOracle,
    OutOfOrderEngine,
    ResilientRunner,
    CrashError,
    parse,
)
from repro.netsim import ConstantLatency, FailureSchedule, UniformLatency, simulate_star
from repro.streams import SyntheticSource, measure_disorder, required_k
from repro.streams.kslack import MaxObservedK, QuantileK

PATTERN = parse("PATTERN SEQ(A a, B b) WITHIN 25")


def star_streams(n=3, count=200, interval=1):
    return {
        f"s{i}": SyntheticSource(["A", "B", "C"], count, seed=i, interval=interval).take(
            count
        )
        for i in range(n)
    }


def outage_arrival(outage=(60, 160), count=250, seed=0):
    """Two-source star with one node down during *outage*."""
    streams = star_streams(2, count=count)
    failures = FailureSchedule()
    failures.add_outage("s0", *outage)
    result = simulate_star(
        streams, lambda i: ConstantLatency(0), failures=failures, seed=seed
    )
    return result, failures


class TestFailureDisorderSignature:
    def test_recovery_burst_is_bursty_disorder(self):
        clean = simulate_star(star_streams(2), lambda i: ConstantLatency(0))
        result, _ = outage_arrival()
        burst = measure_disorder(result.arrival_order)
        baseline = measure_disorder(clean.arrival_order)
        # The outage manufactures lateness of the order of its duration,
        # far beyond anything latency jitter produces here.
        assert burst.max_delay >= 90
        assert burst.max_delay > baseline.max_delay + 50
        assert burst.displaced > baseline.displaced

    def test_burst_delay_bounded_by_outage_duration(self):
        result, _ = outage_arrival(outage=(60, 160))
        stats = measure_disorder(result.arrival_order)
        # Held events are released at recovery: max staleness cannot
        # exceed outage length plus the jitter-free transit (zero here).
        assert stats.max_delay <= 100

    def test_outage_only_disorder_needs_k_of_outage_scale(self):
        result, _ = outage_arrival(outage=(60, 160))
        assert required_k(result.arrival_order) >= 90


class TestAdaptiveKUnderFailures:
    TRAINING = 250

    def _train_and_run(self, estimator):
        # With s0 down over [40, 130), the recovery burst lands around
        # arrival index 170; the training window must cover it so the
        # estimator sees the failure-scale lateness before K freezes.
        result, _ = outage_arrival(outage=(40, 130), count=300)
        arrival = result.arrival_order
        for event in arrival[: self.TRAINING]:
            estimator.observe(event)
        k = estimator.current()
        engine = OutOfOrderEngine(PATTERN, k=k)
        engine.run(arrival)
        return k, engine, arrival

    def test_max_observed_k_absorbs_recovery_burst(self):
        # Training window covers the recovery burst, so the frozen K is
        # at least the burst's staleness: no event is ever late.
        k, engine, arrival = self._train_and_run(MaxObservedK(margin=0.1))
        assert k >= required_k(arrival[: self.TRAINING])
        assert engine.stats.late_dropped == 0

    def test_quantile_k_with_margin_adapts(self):
        k, engine, _ = self._train_and_run(QuantileK(quantile=1.0, window=500, margin=5))
        assert k > 0
        assert engine.stats.late_dropped == 0

    def test_undersized_fixed_k_drops_where_adaptive_does_not(self):
        result, _ = outage_arrival(outage=(40, 130), count=300)
        arrival = result.arrival_order
        engine = OutOfOrderEngine(PATTERN, k=5)
        engine.run(arrival)
        assert engine.stats.late_dropped > 0
        truth = OfflineOracle(PATTERN).evaluate_set(arrival)
        assert engine.result_set() < truth  # a positive query only loses recall

    def test_adaptive_engine_matches_oracle(self):
        _, engine, arrival = self._train_and_run(MaxObservedK(margin=0.0))
        truth = OfflineOracle(PATTERN).evaluate_set(arrival)
        assert engine.result_set() == truth


class TestCrashIndices:
    def test_outage_maps_to_first_arrival_at_or_after_start(self):
        result, failures = outage_arrival(outage=(60, 160))
        indices = result.crash_indices(failures, "s0")
        assert len(indices) == 1
        index = indices[0]
        assert result.deliveries[index].arrived_at >= 60
        assert index == 0 or result.deliveries[index - 1].arrived_at < 60

    def test_outage_after_last_delivery_produces_no_crash(self):
        result, _ = outage_arrival()
        last = result.deliveries[-1].arrived_at
        late_failures = FailureSchedule()
        late_failures.add_outage("sink", last + 10, last + 20)
        assert result.crash_indices(late_failures, "sink") == []

    def test_node_without_outages_produces_no_crash(self):
        result, failures = outage_arrival()
        assert result.crash_indices(failures, "s1") == []

    def test_simulated_outage_drives_crash_recovery(self, tmp_path):
        # Full chain: netsim outage → crash index → FaultInjector →
        # ResilientRunner dies at that position and recovers exactly-once.
        result, failures = outage_arrival(outage=(60, 160), count=200)
        arrival = result.arrival_order
        k = required_k(arrival)
        crash_at = result.crash_indices(failures, "s0")
        assert crash_at

        plain = ResilientRunner(
            OutOfOrderEngine(PATTERN, k=k), tmp_path / "plain", checkpoint_every=40
        )
        plain.run(arrival)

        fault = FaultInjector.from_outages(crash_at)
        crashes = 0
        while True:
            runner = ResilientRunner(
                OutOfOrderEngine(PATTERN, k=k),
                tmp_path / "crash",
                checkpoint_every=40,
                fault=fault,
            )
            try:
                runner.run(arrival)
                break
            except CrashError:
                crashes += 1
        assert crashes == len(crash_at)
        assert (tmp_path / "crash" / "delivered.jsonl").read_bytes() == (
            tmp_path / "plain" / "delivered.jsonl"
        ).read_bytes()
