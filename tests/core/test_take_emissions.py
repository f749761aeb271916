"""Matches are output, not state: a receiver takes what it is handed.

``Engine.take_emissions`` returns the emission records accumulated since
the last take and makes the engine forget them.  These tests pin the
*property* that buys — retained state and checkpoint size follow what is
live, not how long the run has been — rather than any particular
history: for every engine family, under the runner, and for a recovery
directory written by the code that still checkpointed the history.  The
speculative stream is output too: ``take_speculation`` hands it over the
same way.
"""

import hashlib
import json
import pickle
import random
import shutil
from pathlib import Path

import pytest

from repro import Attr, Eq, Event, EventBatch, Punctuation, ResilientRunner, seq
from repro.bench import make_engine
from repro.core.recovery import CHECKPOINT_NAME, DELIVERED_NAME, delivered_keys
from helpers import bounded_shuffle, delivered_once
import test_recovery as rec

K = 12
N = 400

PATTERN = seq(
    "A a",
    "!B b",
    "C c",
    within=20,
    where=[Eq(Attr("a", "x"), Attr("c", "x")), Eq(Attr("b", "x"), Attr("a", "x"))],
    name="take",
)

#: name -> make_engine keyword arguments, one per family make_engine builds.
FAMILIES = {
    "ooo": {},
    "inorder": {},
    "reorder": {},
    "partitioned": {"key": "x"},
    "ooo-speculative": {"speculative": True},
}


def build(family):
    name = family.split("-")[0]
    k = None if name == "inorder" else K
    return make_engine(name, PATTERN, k=k, **FAMILIES[family])


def stream(family, n, punctuate=True):
    """A stationary stream: same type mix, key spread and disorder throughout."""
    rng = random.Random(n)
    events = [
        Event(rng.choice("AABCC"), ts, {"x": rng.randint(0, 3)})
        for ts in range(1, n + 1)
    ]
    if family == "inorder":
        return events
    arrival = bounded_shuffle(events, k=K, seed=7)
    if punctuate:
        for ts in range(100, n - K, 100):
            position = next(i for i, e in enumerate(arrival) if e.ts == ts + K)
            arrival.insert(position + 1, Punctuation(ts))
    return arrival


def record_ids(records):
    return [(r.match.key(), r.emitted_seq, r.emitted_clock) for r in records]


def speculation_ids(emissions, retractions):
    return (
        [(r.seq, r.epoch, r.match.key(), r.emitted_seq, r.emitted_clock)
         for r in emissions],
        [(r.seq, r.ref_seq, r.epoch, r.match.key(), r.cause,
          r.retracted_arrival, r.retracted_clock) for r in retractions],
    )


def speculative(engine):
    return getattr(engine, "speculation", None) is not None


def drive(engine, elements, surface, take):
    """Feed *elements* through one surface, taking both streams after each call.

    Returns every emission record taken and the concatenated speculative
    ``(emissions, retractions)`` taken.
    """
    taken = []
    speculated, retracted = [], []

    def after_call():
        if take:
            taken.extend(engine.take_emissions())
            assert engine.results == [] == engine.emissions
            if speculative(engine):
                emissions, retractions = engine.take_speculation()
                speculated.extend(emissions)
                retracted.extend(retractions)
                log = engine.speculation
                assert log.emissions == [] == log.retractions

    if surface == "feed":
        for element in elements:
            engine.feed(element)
            after_call()
    elif surface == "feed_batch":
        for lo in range(0, len(elements), 7):
            engine.feed_batch(elements[lo : lo + 7])
            after_call()
    else:
        for lo in range(0, len(elements), 64):
            engine.feed_colbatch(EventBatch.from_events(elements[lo : lo + 64]))
            after_call()
    engine.close()
    after_call()
    return taken, (speculated, retracted)


SURFACES = ["feed", "feed_batch", "feed_colbatch"]


def kept_and_taking(family, surface):
    """One engine never taken from and one taken from after every call."""
    elements = stream(family, N, punctuate=surface != "feed_colbatch")
    kept = build(family)
    drive(kept, elements, surface, take=False)
    taking = build(family)
    taken, speculation = drive(taking, elements, surface, take=True)
    return kept, taking, taken, speculation


@pytest.mark.parametrize("surface", SURFACES)
@pytest.mark.parametrize("family", list(FAMILIES))
def test_takes_concatenate_to_the_untaken_record(family, surface):
    kept, taking, taken, _ = kept_and_taking(family, surface)
    assert kept.emissions, "the stream must produce matches"
    assert record_ids(taken) == record_ids(kept.emissions)
    assert [r.match for r in kept.emissions] == kept.results
    # Counters and clocks never notice a take.
    assert taking.stats.as_dict() == kept.stats.as_dict()
    assert taking.arrival_index == kept.arrival_index


@pytest.mark.parametrize("surface", SURFACES)
def test_speculative_takes_concatenate_to_the_untaken_log(surface):
    """The optimistic mode's early output is handed over like the sealed output."""
    kept, taking, _, speculation = kept_and_taking("ooo-speculative", surface)
    log = kept.speculation
    assert log.emissions, "the stream must speculate"
    assert log.retractions, "the stream must exercise retractions"
    assert speculation_ids(*speculation) == speculation_ids(
        log.emissions, log.retractions
    )
    # Taking never moves the epoch or what the seal decides.
    assert taking.speculation.epoch == log.epoch
    emissions, retractions = speculation
    withdrawn = {r.ref_seq for r in retractions}
    net = {r.match.key() for r in emissions if r.seq not in withdrawn}
    assert net == log.net_keys() == kept.result_set()


def snapshot_size_after(family, n):
    engine = build(family)
    for element in stream(family, n)[: n - 2 * K]:  # mid-stream: state is live
        engine.feed(element)
        engine.take_emissions()
        if speculative(engine):
            engine.take_speculation()
    return len(engine.snapshot())


@pytest.mark.parametrize("family", list(FAMILIES))
def test_snapshot_size_follows_live_state_not_run_length(family):
    short = snapshot_size_after(family, N)
    long = snapshot_size_after(family, 10 * N)
    assert long <= 1.5 * short, (short, long)


class TestRunnerHandsOver:
    def checkpoint_sizes(self, directory, elements, interval):
        runner = ResilientRunner(rec.make_engine(), directory, checkpoint_every=interval)
        sizes = []
        for element in elements:
            runner.feed(element)
            assert runner.engine.results == [] == runner.engine.emissions
            if runner.seq % interval == 0:
                sizes.append((directory / CHECKPOINT_NAME).stat().st_size)
        runner.close()
        assert runner.engine.results == [] == runner.engine.emissions
        return runner, sizes

    def test_engine_keeps_nothing_and_checkpoints_stay_flat(self, tmp_path):
        short, short_sizes = self.checkpoint_sizes(tmp_path / "n", rec.trace(300), 50)
        long, long_sizes = self.checkpoint_sizes(tmp_path / "10n", rec.trace(3000), 50)
        assert long.delivered_count > 5 * short.delivered_count
        assert long_sizes[-1] <= 1.5 * long_sizes[1]
        assert max(long_sizes) <= 1.5 * max(short_sizes)

    def test_runner_keeps_the_records_of_what_it_delivered(self, tmp_path):
        elements = rec.trace()
        bare = rec.make_engine()
        bare.run(elements)
        runner = ResilientRunner(rec.make_engine(), tmp_path, checkpoint_every=25)
        runner.run(elements)
        assert record_ids(runner.emissions) == record_ids(bare.emissions)
        assert [r.match for r in runner.emissions] == runner.matches
        assert delivered_once(tmp_path) == bare.result_set()

    def test_delivered_keys_repairs_a_torn_tail(self, tmp_path):
        runner = ResilientRunner(rec.make_engine(), tmp_path, checkpoint_every=25)
        runner.run(rec.trace())
        whole = delivered_keys(tmp_path)
        with (tmp_path / DELIVERED_NAME).open("a", encoding="utf-8") as handle:
            handle.write('{"key": ["rec", [1, ')
        assert delivered_keys(tmp_path) == whole
        assert (tmp_path / DELIVERED_NAME).read_bytes().endswith(b"\n")
        assert delivered_keys(tmp_path / "nowhere") == set()

    def test_checkpoint_size_is_on_the_registry(self, tmp_path):
        from repro.obs import MetricsRegistry

        engine = rec.make_engine()
        registry = MetricsRegistry()
        engine.enable_observability(metrics=registry)
        runner = ResilientRunner(engine, tmp_path, checkpoint_every=40)
        runner.run(rec.trace())
        gauge = registry.get("repro_runner_checkpoint_bytes")
        assert gauge.value == (tmp_path / CHECKPOINT_NAME).stat().st_size


class TestParentWrittenDirectory:
    """A format-1 directory left by the code that checkpointed history."""

    FIXTURE = Path(__file__).parent / "fixtures" / "parent_checkpoint"

    def test_fixture_is_the_parents_artefact(self):
        provenance = json.loads((self.FIXTURE / "PROVENANCE.json").read_text())
        for name, digest in provenance["sha256"].items():
            assert hashlib.sha256((self.FIXTURE / name).read_bytes()).hexdigest() == digest
        checkpoint = pickle.loads((self.FIXTURE / CHECKPOINT_NAME).read_bytes())
        assert checkpoint["format"] == 1 and checkpoint["delivered"] == 66
        carrier = rec.make_engine()
        carrier.restore(checkpoint["snapshot"])
        assert len(carrier.results) == 66  # the history rode the checkpoint

    def test_recovers_and_delivers_exactly_once(self, tmp_path):
        scenario = json.loads((self.FIXTURE / "PROVENANCE.json").read_text())["scenario"]
        # As generate.py builds it: eid = ts pins the match identities.
        elements = [
            Event(e.etype, e.ts, e.attrs, eid=e.ts)
            for e in rec.trace(scenario["events"], seed=scenario["seed"])
        ]
        interval = scenario["checkpoint_every"]
        plain = tmp_path / "plain"
        ResilientRunner(rec.make_engine(), plain, checkpoint_every=interval).run(elements)
        crashed = tmp_path / "crashed"
        shutil.copytree(self.FIXTURE, crashed)
        runner = ResilientRunner(rec.make_engine(), crashed, checkpoint_every=interval)
        assert runner.recovered
        # Checkpoint at 75; the crashed element was logged, never processed.
        assert runner.replayed_elements == scenario["crash_at"] + 1 - 75
        assert runner.engine.results == [] == runner.engine.emissions
        runner.run(elements)
        assert (crashed / DELIVERED_NAME).read_bytes() == (
            plain / DELIVERED_NAME
        ).read_bytes()
        assert (crashed / CHECKPOINT_NAME).read_bytes() == (
            plain / CHECKPOINT_NAME
        ).read_bytes()
