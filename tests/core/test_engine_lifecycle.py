"""Engine lifecycle: feed/close discipline, emission records, config."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import (
    ConfigurationError,
    EngineStateError,
    Event,
    EventBatch,
    InOrderEngine,
    OutOfOrderEngine,
    PartitionedEngine,
    PurgePolicy,
    ReorderingEngine,
    ShedPolicy,
    parse,
    seq,
)
from repro.obs import MetricsRegistry
from helpers import make_events

KEYED = parse("PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 10", name="keyed")

#: family -> variant -> factory.  Every configuration that used to leave
#: the fused loop (shed, obs) or never had one (partitioned
#: families) once answered ``[]`` to an empty batch after close().
CLOSED_CASES = {
    "ooo": {
        "plain": lambda: OutOfOrderEngine(KEYED, k=3),
        "shed": lambda: OutOfOrderEngine(KEYED, k=3, shed=ShedPolicy.drop_oldest(4)),
    },
    "speculative": {
        "plain": lambda: OutOfOrderEngine(KEYED, k=3, speculative=True),
        "shed": lambda: OutOfOrderEngine(
            KEYED, k=3, shed=ShedPolicy.drop_oldest(4), speculative=True
        ),
    },
    "inorder": {"plain": lambda: InOrderEngine(KEYED)},
    "reorder": {"plain": lambda: ReorderingEngine(KEYED, k=3)},
    "partitioned": {"plain": lambda: PartitionedEngine(KEYED, k=3)},
}


def _closed_cases():
    for family, variants in CLOSED_CASES.items():
        for variant, factory in variants.items():
            yield pytest.param(factory, False, id=f"{family}-{variant}")
        yield pytest.param(variants["plain"], True, id=f"{family}-obs")


def test_import_loads_no_worker_machinery():
    """``import repro`` is serial: no module of the package imports a
    worker pool."""
    code = (
        "import sys, repro; "
        "print(sorted({'queue', 'multiprocessing'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestLifecycle:
    def test_feed_after_close_raises(self, plain_seq2):
        engine = OutOfOrderEngine(plain_seq2, k=0)
        engine.close()
        with pytest.raises(EngineStateError):
            engine.feed(Event("A", 1))

    @pytest.mark.parametrize("factory, observed", list(_closed_cases()))
    def test_closed_engine_refuses_even_empty_input(self, factory, observed):
        engine = factory()
        if observed:
            engine.enable_observability(metrics=MetricsRegistry())
        engine.feed(Event("A", 1, {"x": 1}))
        engine.close()
        with pytest.raises(EngineStateError):
            engine.feed(Event("A", 2, {"x": 1}))
        with pytest.raises(EngineStateError):
            engine.feed_batch([])
        with pytest.raises(EngineStateError):
            engine.feed_colbatch(EventBatch.from_events([]))

    def test_double_close_is_noop(self, plain_seq2):
        engine = OutOfOrderEngine(plain_seq2, k=0)
        engine.close()
        assert engine.close() == []

    def test_closed_flag(self, plain_seq2):
        engine = OutOfOrderEngine(plain_seq2, k=0)
        assert not engine.closed
        engine.close()
        assert engine.closed

    def test_run_equals_feed_many_plus_close(self, plain_seq2, random_trace):
        first = OutOfOrderEngine(plain_seq2, k=0)
        all_emitted = first.run(random_trace)
        second = OutOfOrderEngine(plain_seq2, k=0)
        emitted = second.feed_batch(random_trace)
        emitted.extend(second.close())
        assert [m.key() for m in all_emitted] == [m.key() for m in emitted]

    def test_arrival_index_counts_events_not_punctuation(self, plain_seq2):
        from repro import Punctuation

        engine = OutOfOrderEngine(plain_seq2, k=0)
        engine.feed(Event("A", 1))
        engine.feed(Punctuation(1))
        engine.feed(Event("B", 2))
        assert engine.arrival_index == 2


class TestEmissionRecords:
    def test_emission_records_parallel_results(self, plain_seq2):
        engine = OutOfOrderEngine(plain_seq2, k=0)
        engine.run(make_events("A1 B2 A3 B4"))
        assert len(engine.emissions) == len(engine.results)
        for record, match in zip(engine.emissions, engine.results):
            assert record.match is match

    def test_emitted_seq_is_arrival_index_at_emission(self, plain_seq2):
        engine = OutOfOrderEngine(plain_seq2, k=0)
        engine.feed(Event("A", 1))
        engine.feed(Event("Z", 1))  # irrelevant, still counts as arrival
        engine.feed(Event("B", 2))
        assert engine.emissions[0].emitted_seq == 3

    def test_emitted_clock_recorded(self, plain_seq2):
        engine = OutOfOrderEngine(plain_seq2, k=0)
        engine.run(make_events("A1 B5"))
        assert engine.emissions[0].emitted_clock == 5


class TestConfigurationValidation:
    def test_negative_k_rejected(self, plain_seq2):
        with pytest.raises(ConfigurationError):
            OutOfOrderEngine(plain_seq2, k=-1)

    def test_float_k_rejected(self, plain_seq2):
        with pytest.raises(ConfigurationError):
            OutOfOrderEngine(plain_seq2, k=2.5)

    def test_purge_policy_cloned(self, plain_seq2):
        # The engine keeps a private copy: due() mutates schedule state,
        # so holding the caller's object would let two engines sharing a
        # policy interleave their purge countdowns.
        policy = PurgePolicy.lazy(64)
        engine = OutOfOrderEngine(plain_seq2, k=0, purge=policy)
        assert engine.purge_policy is not policy
        assert engine.purge_policy.mode is policy.mode
        assert engine.purge_policy.interval == policy.interval

    def test_defaults(self, plain_seq2):
        engine = OutOfOrderEngine(plain_seq2)
        assert engine.clock.k is None
        assert engine.purge_policy.mode.value == "eager"


class TestStatsObject:
    def test_as_dict_covers_all_slots(self, plain_seq2):
        engine = OutOfOrderEngine(plain_seq2, k=0)
        engine.run(make_events("A1 B2"))
        snapshot = engine.stats.as_dict()
        assert snapshot["events_in"] == 2
        assert snapshot["matches_emitted"] == 1
        assert set(snapshot) == set(engine.stats.__slots__)

    def test_merge_sums_counters_and_maxes_peak(self, plain_seq2):
        from repro import EngineStats

        first = EngineStats()
        first.events_in = 5
        first.peak_state_size = 10
        second = EngineStats()
        second.events_in = 3
        second.peak_state_size = 20
        first.merge(second)
        assert first.events_in == 8
        assert first.peak_state_size == 20

    def test_repr_shows_nonzero_only(self):
        from repro import EngineStats

        stats = EngineStats()
        stats.events_in = 2
        text = repr(stats)
        assert "events_in=2" in text
        assert "matches_emitted" not in text


class TestRepr:
    def test_repr_shows_configuration_and_progress(self, plain_seq2):
        engine = OutOfOrderEngine(plain_seq2, k=5)
        engine.feed_batch(make_events("A1 B2"))
        text = repr(engine)
        assert "k=5" in text and "clock=2" in text and "matches=1" in text

    def test_repr_unbounded_k(self, plain_seq2):
        assert "k=∞" in repr(OutOfOrderEngine(plain_seq2))

    def test_window_rejections_counted_in_unoptimised_mode(self, plain_seq2):
        engine = OutOfOrderEngine(
            plain_seq2, k=0, optimize_construction=False
        )
        # A1 is far outside the window when B50 triggers construction,
        # but the unoptimised full-stack scan still examines it.
        from repro import PurgePolicy

        engine = OutOfOrderEngine(
            plain_seq2, k=0, optimize_construction=False,
            purge=PurgePolicy.none(),
        )
        engine.feed_batch(make_events("A1 A49 B50"))
        assert engine.stats.window_rejections >= 1
        assert len(engine.results) == 1
