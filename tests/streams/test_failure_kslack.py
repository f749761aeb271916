"""Failure-induced disorder meets K-slack estimation (S3 integration).

The paper's second disorder cause: a node outage holds traffic, and
recovery releases it as a burst of stale events.  These tests pin the
full chain — outage → bursty disorder signature at the sink → K
estimated on a training prefix absorbing the burst without a late drop
— and the outage → crash-point mapping that turns simulated failures
into engine crash/restart drills.
"""

from repro import (
    FaultInjector,
    OfflineOracle,
    OutOfOrderEngine,
    ResilientRunner,
    CrashError,
    parse,
)
from repro.streams import (
    SyntheticSource,
    crash_positions,
    measure_disorder,
    required_k,
    star_arrival,
)
from repro.streams.kslack import MaxObservedK, QuantileK

PATTERN = parse("PATTERN SEQ(A a, B b) WITHIN 25")


def star_streams(n=3, count=200, interval=1):
    return {
        f"s{i}": SyntheticSource(["A", "B", "C"], count, seed=i, interval=interval).take(
            count
        )
        for i in range(n)
    }


def outage_arrival(outage=(60, 160), count=250):
    """``(arrival, times)`` of a two-source star with s0 down during *outage*."""
    return star_arrival(star_streams(2, count=count), (0, 0), {"s0": [outage]})


class TestFailureDisorderSignature:
    def test_recovery_burst_is_bursty_disorder(self):
        clean, _times = star_arrival(star_streams(2), (0, 0))
        arrival, _times = outage_arrival()
        burst = measure_disorder(arrival)
        baseline = measure_disorder(clean)
        # The outage manufactures lateness of the order of its duration,
        # far beyond anything latency jitter produces here.
        assert burst.max_delay >= 90
        assert burst.max_delay > baseline.max_delay + 50
        assert burst.displaced > baseline.displaced

    def test_burst_delay_bounded_by_outage_duration(self):
        arrival, _times = outage_arrival(outage=(60, 160))
        stats = measure_disorder(arrival)
        # Held events are released at recovery: max staleness cannot
        # exceed outage length plus the jitter-free transit (zero here).
        assert stats.max_delay <= 100

    def test_outage_only_disorder_needs_k_of_outage_scale(self):
        arrival, _times = outage_arrival(outage=(60, 160))
        assert required_k(arrival) >= 90


class TestAdaptiveKUnderFailures:
    TRAINING = 250

    def _train_and_run(self, estimator):
        # With s0 down over [40, 130), the recovery burst lands around
        # arrival index 170; the training window must cover it so the
        # estimator sees the failure-scale lateness before K freezes.
        arrival, _times = outage_arrival(outage=(40, 130), count=300)
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
        arrival, _times = outage_arrival(outage=(40, 130), count=300)
        engine = OutOfOrderEngine(PATTERN, k=5)
        engine.run(arrival)
        assert engine.stats.late_dropped > 0
        truth = OfflineOracle(PATTERN).evaluate_set(arrival)
        assert engine.result_set() < truth  # a positive query only loses recall

    def test_adaptive_engine_matches_oracle(self):
        _, engine, arrival = self._train_and_run(MaxObservedK(margin=0.0))
        truth = OfflineOracle(PATTERN).evaluate_set(arrival)
        assert engine.result_set() == truth


class TestCrashPositions:
    def test_outage_maps_to_first_arrival_at_or_after_start(self):
        _arrival, times = outage_arrival(outage=(60, 160))
        positions = crash_positions(times, [(60, 160)])
        assert len(positions) == 1
        index = positions[0]
        assert times[index] >= 60
        assert index == 0 or times[index - 1] < 60

    def test_outage_after_last_arrival_produces_no_crash(self):
        _arrival, times = outage_arrival()
        last = times[-1]
        assert crash_positions(times, [(last + 10, last + 20)]) == []

    def test_node_without_outages_produces_no_crash(self):
        _arrival, times = outage_arrival()
        assert crash_positions(times, []) == []

    def test_simulated_outage_drives_crash_recovery(self, tmp_path):
        # Full chain: source outage → crash position → FaultInjector →
        # ResilientRunner dies at that position and recovers exactly-once.
        arrival, times = outage_arrival(outage=(60, 160), count=200)
        k = required_k(arrival)
        crash_at = crash_positions(times, [(60, 160)])
        assert crash_at

        plain = ResilientRunner(
            OutOfOrderEngine(PATTERN, k=k), tmp_path / "plain", checkpoint_every=40
        )
        plain.run(arrival)

        fault = FaultInjector(crash_at=crash_at)
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
