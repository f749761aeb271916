"""Load shedding: bounded state under overload, degradation accounted for.

The shed policy trades recall for a hard state bound: when stored
events exceed ``max_state`` the engine drops stored elements
(oldest-first, optionally from sacrificial types first) instead of
growing without bound.  The loss is *visible* — ``events_shed`` counts
casualties and flows into :class:`repro.metrics.quality.QualityReport`
— and *deterministic* — the same stream sheds the same events.
"""

import pytest

from repro import (
    ConfigurationError,
    Event,
    OfflineOracle,
    OutOfOrderEngine,
    PurgePolicy,
    ShedMode,
    ShedPolicy,
    seq,
)
from repro.bench import make_engine
from repro.metrics.quality import compare_keys

PATTERN = seq("A a", "B b", within=1000, name="shed")
NEG_PATTERN = seq("A a", "!B b", "C c", within=1000, name="shedneg")


class TestPolicyValidation:
    def test_max_state_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ShedPolicy.drop_oldest(0)
        with pytest.raises(ConfigurationError):
            ShedPolicy.drop_oldest(-5)

    def test_drop_by_type_requires_victims(self):
        with pytest.raises(ConfigurationError):
            ShedPolicy(10, ShedMode.DROP_BY_TYPE, ())

    def test_victims_must_be_nonempty_type_names(self):
        # Regression: an empty-string (or non-string) victim silently
        # never matched any store, making the policy a disguised
        # drop-oldest; it is now a configuration error.
        with pytest.raises(ConfigurationError):
            ShedPolicy.drop_by_type(10, ("A", ""))
        with pytest.raises(ConfigurationError):
            ShedPolicy.drop_by_type(10, ("A", None))

    def test_duplicate_victims_deduped_first_occurrence_order(self):
        policy = ShedPolicy.drop_by_type(10, ("B", "A", "B", "A"))
        assert policy.victims == ("B", "A")
        # Fingerprint of a duplicate-free spelling is byte-identical,
        # so snapshots taken under either spelling stay compatible.
        assert policy.fingerprint() == ShedPolicy.drop_by_type(10, ("B", "A")).fingerprint()

    def test_fingerprint_is_stable(self):
        policy = ShedPolicy.drop_by_type(10, ["B", "A"])
        assert policy.fingerprint() == ShedPolicy.drop_by_type(10, ["B", "A"]).fingerprint()

    def test_unmatched_victims_surface_typos(self):
        policy = ShedPolicy.drop_by_type(10, ("B", "TELEMETRY"))
        assert policy.unmatched_victims(PATTERN.relevant_types) == ("TELEMETRY",)
        assert policy.unmatched_victims({"A", "B", "TELEMETRY"}) == ()

    def test_register_metrics_publishes_bound_and_unmatched(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        policy = ShedPolicy.drop_by_type(123, ("B", "TYPO"))
        policy.register_metrics(registry, retained_types=PATTERN.relevant_types)
        assert registry.get("repro_shed_bound").value == 123
        assert registry.get("repro_shed_victims_unmatched").value == 1

    def test_register_metrics_without_types_skips_unmatched_gauge(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        ShedPolicy.drop_oldest(50).register_metrics(registry)
        assert registry.get("repro_shed_bound").value == 50
        assert registry.get("repro_shed_victims_unmatched") is None

    def test_make_engine_rejects_unsupported_strategies(self):
        with pytest.raises(ConfigurationError):
            make_engine("inorder", PATTERN, shed=ShedPolicy.drop_oldest(10))


class TestDropOldest:
    def test_state_bounded_throughout(self):
        engine = OutOfOrderEngine(
            PATTERN, k=2000, purge=PurgePolicy.none(),
            shed=ShedPolicy.drop_oldest(25),
        )
        for ts in range(1, 401):
            engine.feed(Event("A", ts, {}))
            assert engine.stacks.size() + engine.negatives.size() <= 25
        assert engine.stats.events_shed > 0

    def test_no_spurious_matches(self):
        # Shedding positive events can only *lose* matches for a
        # negation-free pattern, never invent them.
        events = [Event("AB"[ts % 2], ts, {}) for ts in range(1, 301)]
        truth = OfflineOracle(PATTERN).evaluate_set(events)
        engine = OutOfOrderEngine(
            PATTERN, k=2000, purge=PurgePolicy.none(),
            shed=ShedPolicy.drop_oldest(30),
        )
        engine.run(events)
        produced = engine.result_set()
        assert produced <= truth
        report = compare_keys(truth, produced, shed=engine.stats.events_shed)
        assert report.precision == 1.0
        assert "shed" in repr(report)

    def test_deterministic(self):
        events = [Event("AB"[ts % 2], ts, {}) for ts in range(1, 201)]

        def run():
            engine = OutOfOrderEngine(
                PATTERN, k=2000, purge=PurgePolicy.none(),
                shed=ShedPolicy.drop_oldest(20),
            )
            engine.run(events)
            return [m.key() for m in engine.results], engine.stats.events_shed

        assert run() == run()

    def test_unstressed_engine_never_sheds(self):
        engine = OutOfOrderEngine(PATTERN, k=10, shed=ShedPolicy.drop_oldest(10_000))
        engine.run([Event("AB"[ts % 2], ts, {}) for ts in range(1, 101)])
        assert engine.stats.events_shed == 0

    def test_speculative_engine_supports_shedding(self):
        engine = OutOfOrderEngine(
            NEG_PATTERN, k=2000, purge=PurgePolicy.none(),
            shed=ShedPolicy.drop_oldest(25), speculative=True,
        )
        for ts in range(1, 301):
            engine.feed(Event("AC"[ts % 2], ts, {}))
        assert engine.stats.events_shed > 0
        assert engine.stats.speculative_emitted > 0
        engine.close()
        assert engine.speculation.net_keys() == engine.result_set()

    def test_batch_path_falls_back_to_reference_loop(self):
        events = [Event("AB"[ts % 2], ts, {}) for ts in range(1, 201)]
        batched = OutOfOrderEngine(
            PATTERN, k=2000, purge=PurgePolicy.none(),
            shed=ShedPolicy.drop_oldest(20),
        )
        single = OutOfOrderEngine(
            PATTERN, k=2000, purge=PurgePolicy.none(),
            shed=ShedPolicy.drop_oldest(20),
        )
        out_b = batched.feed_batch(events) + batched.close()
        out_s = [m for e in events for m in single.feed(e)] + single.close()
        assert [m.key() for m in out_b] == [m.key() for m in out_s]
        assert batched.stats.as_dict() == single.stats.as_dict()


class TestDropByType:
    def test_victim_types_shed_first(self):
        engine = OutOfOrderEngine(
            PATTERN, k=2000, purge=PurgePolicy.none(),
            shed=ShedPolicy.drop_by_type(20, ["A"]),
        )
        for ts in range(1, 31):
            engine.feed(Event("A", ts, {}))
        for ts in range(31, 41):
            engine.feed(Event("B", ts, {}))
        # All 10 B's retained; the A stack paid the whole bound.
        assert len(engine.stacks.stacks[1]) == 10  # step 1 = B
        assert len(engine.stacks.stacks[0]) == 10  # step 0 = A
        assert engine.stats.events_shed == 20

    def test_falls_back_to_global_drop_oldest(self):
        # Victims exhausted: the bound must still hold.
        engine = OutOfOrderEngine(
            PATTERN, k=2000, purge=PurgePolicy.none(),
            shed=ShedPolicy.drop_by_type(15, ["A"]),
        )
        for ts in range(1, 41):
            engine.feed(Event("B", ts, {}))
        assert engine.stacks.size() <= 15
        assert engine.stats.events_shed == 25


class TestShedReporting:
    def test_shed_counter_reaches_quality_report(self):
        engine = OutOfOrderEngine(
            PATTERN, k=2000, purge=PurgePolicy.none(),
            shed=ShedPolicy.drop_oldest(10),
        )
        events = [Event("AB"[ts % 2], ts, {}) for ts in range(1, 101)]
        engine.run(events)
        report = compare_keys(
            OfflineOracle(PATTERN).evaluate_set(events),
            engine.result_set(),
            shed=engine.stats.events_shed,
        )
        assert report.shed == engine.stats.events_shed > 0
