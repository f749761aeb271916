"""Purge correctness and effectiveness (repro.core.purge + engine)."""

import pytest

from repro import (
    ConfigurationError,
    Event,
    OutOfOrderEngine,
    PurgeMode,
    PurgePolicy,
    seq,
)
from repro.core.purge import Purger
from repro.core.stacks import Instance, StackSet
from helpers import bounded_shuffle, engine_vs_oracle, make_events


class TestPurgePolicySchedule:
    def test_eager_always_due(self):
        policy = PurgePolicy.eager()
        assert all(policy.due() for __ in range(5))

    def test_none_never_due(self):
        policy = PurgePolicy.none()
        assert not any(policy.due() for __ in range(5))

    def test_lazy_due_every_interval(self):
        policy = PurgePolicy.lazy(interval=3)
        observed = [policy.due() for __ in range(9)]
        assert observed == [False, False, True] * 3

    def test_lazy_interval_validated(self):
        with pytest.raises(ConfigurationError):
            PurgePolicy.lazy(interval=0)

    def test_repr(self):
        assert "eager" in repr(PurgePolicy.eager())
        assert "interval=7" in repr(PurgePolicy.lazy(interval=7))
        assert PurgePolicy.eager().mode is PurgeMode.EAGER


class TestPurgerThresholds:
    def _stacks(self, length, placements):
        stacks = StackSet(length)
        for step, ts in placements:
            stacks.stacks[step].insert(Instance(Event("X", ts), 0))
        return stacks

    def test_non_final_steps_keep_window_reach(self):
        purger = Purger(window=10, pattern_length=2)
        stacks = self._stacks(2, [(0, 5), (0, 20), (1, 5), (1, 20)])
        purger.cut(15, *purger.resolve(stacks.stacks, ()))
        # step 0 threshold: horizon - W = 5 -> ts<=5 purged.
        assert [i.ts for i in stacks.stacks[0]] == [20]
        # final step threshold: horizon + 1 = 16 -> ts<=16 purged.
        assert [i.ts for i in stacks.stacks[1]] == [20]

    def test_negative_horizon_is_noop(self):
        purger = Purger(window=10, pattern_length=2)
        stacks = self._stacks(2, [(0, 5)])
        assert purger.cut(-1, *purger.resolve(stacks.stacks, ()))[:2] == (0, 0)
        assert stacks.size() == 1


class TestPurgeSafety:
    """Purging must never change results — only memory."""

    @pytest.mark.parametrize(
        "policy_factory",
        [PurgePolicy.eager, PurgePolicy.none, lambda: PurgePolicy.lazy(16)],
    )
    def test_results_identical_across_policies(
        self, abc_pattern, random_trace, policy_factory
    ):
        arrival = bounded_shuffle(random_trace, k=15, seed=11)
        engine_vs_oracle(abc_pattern, arrival, k=15, purge=policy_factory())

    @pytest.mark.parametrize("k", [0, 3, 20])
    def test_purge_safe_at_every_k(self, abc_pattern, random_trace, k):
        arrival = bounded_shuffle(random_trace, k=k, seed=5)
        engine_vs_oracle(abc_pattern, arrival, k=k, purge=PurgePolicy.eager())

    def test_purge_safe_with_negation(self, neg_pattern, random_trace):
        arrival = bounded_shuffle(random_trace, k=10, seed=6)
        engine_vs_oracle(neg_pattern, arrival, k=10, purge=PurgePolicy.eager())

    def test_purge_safe_with_lazy_and_negation(self, neg_pattern, random_trace):
        arrival = bounded_shuffle(random_trace, k=10, seed=7)
        engine_vs_oracle(neg_pattern, arrival, k=10, purge=PurgePolicy.lazy(32))


class TestPurgeEffectiveness:
    def test_eager_bounds_state(self, plain_seq2):
        events = [Event("A", ts) for ts in range(1, 2001)]
        engine = OutOfOrderEngine(plain_seq2, k=0, purge=PurgePolicy.eager())
        engine.feed_batch(events)
        # Window 10, K 0: state is O(window), not O(stream).
        assert engine.state_size() < 50

    def test_no_purge_grows_linearly(self, plain_seq2):
        events = [Event("A", ts) for ts in range(1, 2001)]
        engine = OutOfOrderEngine(plain_seq2, k=0, purge=PurgePolicy.none())
        engine.feed_batch(events)
        assert engine.state_size() == 2000

    def test_lazy_state_between_eager_and_none(self, plain_seq2):
        events = [Event("A", ts) for ts in range(1, 2001)]

        def peak(policy):
            engine = OutOfOrderEngine(plain_seq2, k=0, purge=policy)
            engine.feed_batch(events)
            return engine.stats.peak_state_size

        eager_peak = peak(PurgePolicy.eager())
        lazy_peak = peak(PurgePolicy.lazy(100))
        none_peak = peak(PurgePolicy.none())
        assert eager_peak <= lazy_peak <= none_peak
        assert none_peak == 2000

    def test_larger_k_retains_more(self, plain_seq2):
        events = [Event("A", ts) for ts in range(1, 1001)]

        def peak(k):
            engine = OutOfOrderEngine(plain_seq2, k=k, purge=PurgePolicy.eager())
            engine.feed_batch(events)
            return engine.stats.peak_state_size

        assert peak(0) < peak(100) < peak(500)

    def test_negatives_purged_too(self):
        pattern = seq("A a", "!B b", "C c", within=5)
        engine = OutOfOrderEngine(pattern, k=0, purge=PurgePolicy.eager())
        elements = []
        for ts in range(1, 500, 2):
            elements.append(Event("B", ts))
            elements.append(Event("Z", ts + 1))
        engine.feed_batch(elements)
        assert engine.negatives.size() < 20
        assert engine.stats.negatives_purged > 200

    def test_purged_events_dont_resurface(self, plain_seq2):
        engine = OutOfOrderEngine(plain_seq2, k=0, purge=PurgePolicy.eager())
        engine.feed(Event("A", 1))
        engine.feed(Event("Z", 100))  # advances clock, purges A@1
        engine.feed(Event("B", 101))
        # A@1..B@101 exceeds window anyway; check state truly empty of A
        assert all(instance.ts > 1 for instance in engine.stacks.stacks[0])


class TestSharedPolicyGuard:
    def test_policies_are_stateful_not_shared_by_default(self, plain_seq2):
        # Two engines built without explicit policies get independent ones.
        first = OutOfOrderEngine(plain_seq2, k=0)
        second = OutOfOrderEngine(plain_seq2, k=0)
        assert first.purge_policy is not second.purge_policy

    def test_engines_sharing_one_policy_keep_independent_schedules(self, plain_seq2):
        # Regression: PurgePolicy carries mutable countdown state, so two
        # engines handed the same lazy policy used to interleave their
        # schedules (each feed advancing the other's countdown).  Engines
        # now clone the policy at construction.
        shared = PurgePolicy.lazy(2)
        first = OutOfOrderEngine(plain_seq2, k=0, purge=shared)
        second = OutOfOrderEngine(plain_seq2, k=0, purge=shared)
        assert first.purge_policy is not shared
        assert second.purge_policy is not shared
        assert first.purge_policy is not second.purge_policy
        # Alternate feeds; with the shared counter the interleaving made
        # one engine purge after its first event and the other never.
        for ts in range(1, 5):
            first.feed(Event("A", ts))
            second.feed(Event("A", ts))
        assert first.stats.purge_runs == 2
        assert second.stats.purge_runs == 2
        # The caller's object was never advanced behind its back.
        assert shared._since_last == 0
