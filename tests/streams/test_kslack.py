"""K estimation (repro.streams.kslack)."""

import pytest

from repro import ConfigurationError, Event, OutOfOrderEngine, OfflineOracle
from repro.streams import (
    MaxObservedK,
    QuantileK,
    RandomDelayModel,
    SyntheticSource,
    required_k,
)


@pytest.fixture
def disordered():
    events = SyntheticSource(["A", "B", "C"], 800, seed=3).take(800)
    return RandomDelayModel(0.3, 25, seed=4).apply(events)


class TestMaxObservedK:
    def test_tracks_running_max_delay(self, disordered):
        estimator = MaxObservedK()
        for event in disordered:
            estimator.observe(event)
        assert estimator.current() == required_k(disordered)

    def test_never_shrinks(self, disordered):
        estimator = MaxObservedK()
        seen = []
        for event in disordered:
            estimator.observe(event)
            seen.append(estimator.current())
        assert all(b >= a for a, b in zip(seen, seen[1:]))

    def test_margin_scales_up(self, disordered):
        plain = MaxObservedK()
        padded = MaxObservedK(margin=0.5)
        for event in disordered:
            plain.observe(event)
            padded.observe(event)
        assert padded.current() >= int(plain.current() * 1.5)

    def test_initial_floor(self):
        assert MaxObservedK(initial=10).current() == 10

    def test_fractional_margin_rounds_up(self):
        # Regression: int(10 * 1.25) == 12 truncated the safety margin
        # into a late-drop budget; the margin demands ceil(12.5) == 13.
        estimator = MaxObservedK(margin=0.25, initial=10)
        assert estimator.current() == 13

    def test_margin_uses_intended_decimal_not_float_artifact(self):
        # Regression: Fraction(0.001) is slightly *above* 1/1000, so a
        # naive exact ceiling over the raw float returned 1002 where the
        # margin the caller wrote demands ceil(1000 * 1.001) == 1001.
        estimator = MaxObservedK(margin=0.001, initial=1000)
        assert estimator.current() == 1001

    def test_integer_margin_is_exact(self):
        assert MaxObservedK(margin=1.0, initial=7).current() == 14

    def test_ordered_stream_yields_zero(self):
        estimator = MaxObservedK()
        for ts in range(50):
            estimator.observe(Event("A", ts))
        assert estimator.current() == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MaxObservedK(margin=-0.1)
        with pytest.raises(ConfigurationError):
            MaxObservedK(initial=-1)


class TestQuantileK:
    def test_quantile_one_close_to_max(self, disordered):
        estimator = QuantileK(quantile=1.0, window=len(disordered))
        for event in disordered:
            estimator.observe(event)
        assert estimator.current() == required_k(disordered)

    def test_lower_quantile_smaller_k(self, disordered):
        full = QuantileK(quantile=1.0, window=4000)
        partial = QuantileK(quantile=0.9, window=4000)
        for event in disordered:
            full.observe(event)
            partial.observe(event)
        assert partial.current() <= full.current()

    def test_sliding_window_forgets(self):
        estimator = QuantileK(quantile=1.0, window=10)
        estimator.observe(Event("A", 100))
        estimator.observe(Event("A", 1))  # delay 99
        assert estimator.current() == 99
        for ts in range(101, 120):
            estimator.observe(Event("A", ts))
        assert estimator.current() == 0  # the straggler aged out

    def test_margin_added(self):
        estimator = QuantileK(quantile=1.0, window=10, margin=5)
        estimator.observe(Event("A", 10))
        assert estimator.current() == 5

    def test_empty_returns_margin(self):
        assert QuantileK(margin=3).current() == 3

    def test_initial_floor_covers_cold_start(self):
        # With zero observations the floor alone holds the line — a
        # controller re-freezing during warm-up must not lock in K=0.
        assert QuantileK(initial=20).current() == 20

    def test_initial_floor_holds_until_window_fills(self):
        estimator = QuantileK(quantile=1.0, window=4, initial=50)
        for ts in range(1, 4):  # 3 in-order arrivals: delays all zero
            estimator.observe(Event("A", ts))
        assert estimator.current() == 50  # window not yet full

    def test_initial_floor_lifts_once_window_full(self):
        estimator = QuantileK(quantile=1.0, window=4, initial=50)
        for ts in range(1, 6):
            estimator.observe(Event("A", ts))
        assert estimator.current() == 0  # observed quantile takes over

    def test_initial_validation(self):
        with pytest.raises(ConfigurationError):
            QuantileK(initial=-1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            QuantileK(quantile=0.0)
        with pytest.raises(ConfigurationError):
            QuantileK(quantile=1.5)
        with pytest.raises(ConfigurationError):
            QuantileK(window=0)
        with pytest.raises(ConfigurationError):
            QuantileK(margin=-1)

    def test_single_sample_any_quantile(self):
        # n=1: every quantile must land on the only delay in the window.
        for quantile in (0.01, 0.5, 1.0):
            estimator = QuantileK(quantile=quantile, window=1)
            estimator.observe(Event("A", 100))  # delay 0, then aged out
            estimator.observe(Event("A", 1))    # delay 99, the sole sample
            assert estimator.current() == 99

    def test_two_samples_median_is_lower_delay(self):
        # Regression: the floor rank int(q*n) returned the *max* for
        # q=0.5 over two delays, silently inflating K.  ceil(q*n)-1
        # picks the lower-median.
        estimator = QuantileK(quantile=0.5, window=2)
        estimator.observe(Event("A", 100))  # delay 0
        estimator.observe(Event("A", 1))    # delay 99
        assert estimator.current() == 0

    def test_two_samples_full_quantile_is_max(self):
        estimator = QuantileK(quantile=1.0, window=2)
        estimator.observe(Event("A", 100))  # delay 0
        estimator.observe(Event("A", 1))    # delay 99
        assert estimator.current() == 99


def _trained_k(estimator, arrival, training):
    """E12's protocol: observe a training prefix, then freeze K."""
    for event in arrival[:training]:
        estimator.observe(event)
    return estimator.current()


class TestTrainedK:
    def test_max_estimator_with_full_training_is_exact(self, disordered, abc_pattern):
        # Training on the whole stream: the frozen K dominates every delay.
        k = _trained_k(MaxObservedK(), disordered, len(disordered))
        engine = OutOfOrderEngine(abc_pattern, k=k)
        engine.run(disordered)
        truth = OfflineOracle(abc_pattern).evaluate_set(disordered)
        assert engine.result_set() == truth
        assert engine.stats.late_dropped == 0

    def test_quantile_estimator_trades_late_drops_for_small_k(
        self, disordered, abc_pattern
    ):
        small = _trained_k(QuantileK(quantile=0.5, window=400), disordered, 400)
        large = _trained_k(MaxObservedK(), disordered, 400)
        assert small <= large
        dropped = []
        for k in (small, large):
            engine = OutOfOrderEngine(abc_pattern, k=k)
            engine.run(disordered)
            dropped.append(engine.stats.late_dropped)
        assert dropped[0] >= dropped[1]
