"""The runner's unit of work is the cohort: cuts must be invisible on disk.

``ResilientRunner.feed`` takes one element or a list of them and has one
path for any length.  For every engine family the recovery suite covers,
over ``SEQ(A, B)`` and ``SEQ(A, !C, B)``, random streams (events and
punctuations) and random cut points:

* feeding lists ≡ feeding one by one — returned matches in order,
  ``runner.matches`` / ``runner.emissions``, ``engine.stats``, and the
  bytes of ``wal.jsonl``, ``delivered.jsonl`` and the final
  ``checkpoint.bin``;
* a crash point strictly inside a cohort fires after the *whole* cohort
  is logged and before the engine sees any of it; the next incarnation
  replays it and the delivery log ends byte-identical to an
  uninterrupted run — the oracle's matches, each exactly once;
* a purge-time crash part-way through a cohort recovers the same way.

Seeded from ``REPRO_RECOVERY_SEED`` like the crash-anywhere suite, so the
CI fault-smoke matrix sweeps disjoint scenarios reproducibly.
"""

import json
import os
import random

import pytest

from repro import (
    CrashError,
    Event,
    FaultInjector,
    InOrderEngine,
    OfflineOracle,
    OutOfOrderEngine,
    PartitionedEngine,
    Punctuation,
    ReorderingEngine,
    ResilientRunner,
    parse,
)
from repro.core.recovery import (
    CHECKPOINT_NAME,
    DELIVERED_NAME,
    WAL_NAME,
    read_wal_elements,
)
from helpers import bounded_shuffle, delivered_once

SEED = int(os.environ.get("REPRO_RECOVERY_SEED", "0"))
SCENARIOS = 4
K = 7

PATTERNS = {
    "seq": parse("PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 14"),
    "neg": parse(
        "PATTERN SEQ(A a, !C c, B b) WHERE a.x == b.x AND c.x == a.x WITHIN 14"
    ),
}
ENGINE_KINDS = ["ooo", "inorder", "reorder", "speculative", "partitioned"]
LOGS = (WAL_NAME, DELIVERED_NAME, CHECKPOINT_NAME)


def build(kind, pattern):
    if kind == "ooo":
        return OutOfOrderEngine(pattern, k=K)
    if kind == "inorder":
        return InOrderEngine(pattern)
    if kind == "reorder":
        return ReorderingEngine(pattern, k=K)
    if kind == "speculative":
        return OutOfOrderEngine(pattern, k=K, speculative=True)
    if kind == "partitioned":
        return PartitionedEngine(pattern, k=K, key="x")
    raise AssertionError(kind)


def make_stream(kind, rng):
    events = [
        Event(rng.choices("ABC", (45, 45, 10))[0], ts, {"x": rng.randint(0, 2)})
        for ts in range(1, rng.randint(120, 220))
    ]
    if kind == "inorder":
        return events
    arrival = bounded_shuffle(events, k=K, seed=rng.randrange(2**30))
    # Punctuations that promise only what the rest of the stream keeps:
    # everything still to arrive is later than the mark.
    for __ in range(rng.randint(0, 4)):
        at = rng.randrange(1, len(arrival))
        mark = min(e.ts for e in arrival[at:] if isinstance(e, Event)) - 1
        if mark >= 1:
            arrival.insert(at, Punctuation(mark))
    return arrival


def make_cuts(rng, length):
    """Cohort end positions: strictly increasing, the last is *length*."""
    cuts, at = [], 0
    while at < length:
        at = min(length, at + rng.choice([1, 1, 2, 5, 17, 64]))
        cuts.append(at)
    return cuts


def scenarios(kind, name):
    rng = random.Random(
        SEED * 1013 + 31 * ENGINE_KINDS.index(kind) + sorted(PATTERNS).index(name)
    )
    for case in range(SCENARIOS):
        stream = make_stream(kind, rng)
        cuts = make_cuts(rng, len(stream))
        interval = rng.choice([1, 7, 25, 60, 500])
        yield case, rng, stream, cuts, interval


def assert_running_total(engine, context=""):
    """A partitioned engine's running state total is what a re-sum gives."""
    if isinstance(engine, PartitionedEngine):
        assert engine.state_size() == sum(
            sub.state_size() for sub in engine._partitions.values()
        ), context


def feed_cohorts(runner, stream, cuts):
    """Feed *stream* from ``runner.seq`` on, cut at *cuts*; returns the
    matches the calls returned, in order."""
    returned, at = [], runner.seq
    assert_running_total(runner.engine)  # as recovery left it
    for end in cuts:
        if end > at:
            returned.extend(runner.feed(stream[at:end]))
            assert_running_total(runner.engine)
            at = end
    return returned


def keys(matches):
    return [match.key() for match in matches]


def assert_exactly_once(directory, pattern, stream, context):
    records = [
        json.loads(line)
        for line in (directory / DELIVERED_NAME).read_text().splitlines()
    ]
    assert [r["seq"] for r in records] == list(range(len(records))), context
    lines = [json.dumps(r["key"]) for r in records]
    assert len(lines) == len(set(lines)), context  # no delivered line twice
    truth = OfflineOracle(pattern).evaluate_set(
        [e for e in stream if isinstance(e, Event)]
    )
    assert delivered_once(directory) == truth, context


@pytest.mark.parametrize("name", sorted(PATTERNS))
@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_cohorts_are_invisible_on_disk(kind, name, tmp_path):
    pattern = PATTERNS[name]
    for case, __, stream, cuts, interval in scenarios(kind, name):
        context = f"kind={kind} pattern={name} seed={SEED} case={case} cuts={cuts}"
        single = ResilientRunner(
            build(kind, pattern), tmp_path / f"single{case}", checkpoint_every=interval
        )
        one_by_one = []
        for element in stream:
            one_by_one.extend(single.feed(element))
            assert_running_total(single.engine, context)
        one_by_one.extend(single.close())
        assert_running_total(single.engine, context)

        cohorted = ResilientRunner(
            build(kind, pattern), tmp_path / f"cohort{case}", checkpoint_every=interval
        )
        in_cohorts = feed_cohorts(cohorted, stream, cuts)
        in_cohorts.extend(cohorted.close())

        assert keys(in_cohorts) == keys(one_by_one), context
        assert keys(cohorted.matches) == keys(single.matches), context
        assert [
            (r.match.key(), r.emitted_seq, r.emitted_clock) for r in cohorted.emissions
        ] == [
            (r.match.key(), r.emitted_seq, r.emitted_clock) for r in single.emissions
        ], context
        assert cohorted.engine.stats.as_dict() == single.engine.stats.as_dict(), context
        assert cohorted.seq == single.seq == len(stream), context
        for log in LOGS:
            assert (cohorted.directory / log).read_bytes() == (
                single.directory / log
            ).read_bytes(), f"{log}: {context}"


@pytest.mark.parametrize("name", sorted(PATTERNS))
@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_crash_inside_a_cohort_replays_the_whole_cohort(kind, name, tmp_path):
    pattern = PATTERNS[name]
    for case, rng, stream, cuts, interval in scenarios(kind, name):
        plain_dir = tmp_path / f"plain{case}"
        plain = ResilientRunner(build(kind, pattern), plain_dir, checkpoint_every=interval)
        feed_cohorts(plain, stream, cuts)
        plain.close()

        # A crash point strictly inside a cohort of three or more.
        starts = [0] + cuts[:-1]
        start, end = rng.choice(
            [(a, b) for a, b in zip(starts, cuts) if b - a >= 3]
        )
        crash_at = rng.randrange(start + 1, end - 1)
        context = (
            f"kind={kind} pattern={name} seed={SEED} case={case} "
            f"cohort=[{start},{end}) crash_at={crash_at} interval={interval}"
        )

        directory = tmp_path / f"crash{case}"
        fault = FaultInjector(crash_at=[crash_at])
        first = ResilientRunner(
            build(kind, pattern), directory, checkpoint_every=interval, fault=fault
        )
        feed_cohorts(first, stream, [c for c in cuts if c <= start])
        before = first.engine.stats.as_dict()
        with pytest.raises(CrashError):
            first.feed(stream[start:end])
        # The whole cohort is logged; the engine saw none of it.
        assert len(read_wal_elements(directory)) == end, context
        assert first.engine.stats.as_dict() == before, context

        second = ResilientRunner(
            build(kind, pattern), directory, checkpoint_every=interval, fault=fault
        )
        assert second.recovered and second.seq == end, context
        assert second.replayed_elements >= end - start, context
        feed_cohorts(second, stream, cuts)
        second.close()

        assert (directory / DELIVERED_NAME).read_bytes() == (
            plain_dir / DELIVERED_NAME
        ).read_bytes(), context
        assert (directory / WAL_NAME).read_bytes() == (
            plain_dir / WAL_NAME
        ).read_bytes(), context
        assert_exactly_once(directory, pattern, stream, context)


@pytest.mark.parametrize("name", sorted(PATTERNS))
@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_purge_crash_inside_a_cohort_recovers_exactly_once(kind, name, tmp_path):
    pattern = PATTERNS[name]
    for case, rng, stream, __, interval in scenarios(kind, name):
        cuts = list(range(32, len(stream), 32)) + [len(stream)]
        context = f"kind={kind} pattern={name} seed={SEED} case={case} interval={interval}"
        plain_dir = tmp_path / f"plain{case}"
        plain = ResilientRunner(build(kind, pattern), plain_dir, checkpoint_every=interval)
        feed_cohorts(plain, stream, cuts)
        plain.close()

        directory = tmp_path / f"crash{case}"
        fault = FaultInjector(crash_on_purge=rng.randint(2, 6))
        restarts = 0
        while True:
            runner = ResilientRunner(
                fault.arm(build(kind, pattern)),
                directory,
                checkpoint_every=interval,
                fault=fault,
            )
            at = runner.seq
            try:
                feed_cohorts(runner, stream, cuts)
                runner.close()
                break
            except CrashError:
                restarts += 1
                assert restarts < 5, context
                # Mid-cohort, yet the log holds the whole cohort it died in.
                logged = len(read_wal_elements(directory))
                assert logged in cuts and logged > at, context
        assert restarts == 1, context
        assert (directory / DELIVERED_NAME).read_bytes() == (
            plain_dir / DELIVERED_NAME
        ).read_bytes(), context
        assert_exactly_once(directory, pattern, stream, context)


def test_feeding_an_empty_cohort_writes_nothing(tmp_path):
    runner = ResilientRunner(build("ooo", PATTERNS["seq"]), tmp_path)
    assert runner.feed([]) == []
    assert runner.seq == 0
    assert list(tmp_path.iterdir()) == []
    runner.feed(Event("A", 1, {"x": 1}))
    runner.sync()
    wal = (tmp_path / WAL_NAME).read_bytes()
    assert runner.feed([]) == []
    runner.sync()
    assert runner.seq == 1 and (tmp_path / WAL_NAME).read_bytes() == wal
