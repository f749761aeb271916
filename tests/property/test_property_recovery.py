"""Crash-anywhere recovery property: kill the runner at arbitrary points.

For every engine family: pick an arbitrary crash schedule (any input
indices) and any checkpoint interval, crash and restart the runner
until the trace completes, and require the delivered log to be
**byte-identical** to an uninterrupted run — same matches, same order,
same sequence numbers, each match exactly once.

The scenario generator is seeded from ``REPRO_RECOVERY_SEED`` so the CI
fault-smoke matrix sweeps disjoint schedules while every run stays
reproducible: a failure names its seed, and re-running with that seed
replays the identical crash script.
"""

import json
import os
import random

import pytest

from repro import (
    Attr,
    CrashError,
    Eq,
    Event,
    FaultInjector,
    InOrderEngine,
    OfflineOracle,
    OutOfOrderEngine,
    PartitionedEngine,
    Punctuation,
    ReorderingEngine,
    ResilientRunner,
    seq,
)
from repro.core.recovery import DELIVERED_NAME
from helpers import bounded_shuffle, delivered_once

SEED = int(os.environ.get("REPRO_RECOVERY_SEED", "0"))
SCENARIOS_PER_FAMILY = 6
K = 9

PATTERN = seq(
    "A a",
    "!B b",
    "C c",
    within=18,
    where=[Eq(Attr("a", "x"), Attr("c", "x"))],
    name="crashprop",
)

ENGINE_KINDS = ["ooo", "inorder", "reorder", "speculative", "partitioned"]


def build(kind):
    if kind == "ooo":
        return OutOfOrderEngine(PATTERN, k=K)
    if kind == "inorder":
        return InOrderEngine(PATTERN)
    if kind == "reorder":
        return ReorderingEngine(PATTERN, k=K)
    if kind == "speculative":
        return OutOfOrderEngine(PATTERN, k=K, speculative=True)
    if kind == "partitioned":
        return PartitionedEngine(PATTERN, k=K, key="x")
    raise AssertionError(kind)


def make_stream(kind, rng):
    n = rng.randint(180, 300)
    events = [
        Event(rng.choice("ABC"), ts, {"x": rng.randint(0, 2)})
        for ts in range(1, n + 1)
    ]
    if kind == "inorder":
        return events
    arrival = bounded_shuffle(events, k=K, seed=rng.randrange(2**30))
    if rng.random() < 0.5:
        arrival.insert(
            rng.randrange(len(arrival)), Punctuation(events[len(events) // 3].ts)
        )
    return arrival


def family_rng(kind):
    # str.__hash__ is per-process randomized; derive the per-family seed
    # from stable integers only.
    return random.Random(SEED * 1009 + ENGINE_KINDS.index(kind))


def run_to_completion(kind, directory, stream, interval, fault):
    """Crash/restart loop: what a supervisor does to a dying process."""
    restarts = 0
    while True:
        runner = ResilientRunner(
            build(kind), directory, checkpoint_every=interval, fault=fault
        )
        try:
            runner.run(stream)
            return runner, restarts
        except CrashError:
            restarts += 1
            assert restarts < 50, "crash schedule failed to drain"


@pytest.mark.parametrize("kind", ENGINE_KINDS)
class TestCrashAnywhere:
    def test_recovery_is_byte_identical(self, kind, tmp_path):
        rng = family_rng(kind)
        for case in range(SCENARIOS_PER_FAMILY):
            stream = make_stream(kind, rng)
            interval = rng.choice([1, 7, 25, 60, 500])
            crash_at = sorted(
                rng.sample(range(len(stream)), rng.randint(1, 3))
            )

            plain_dir = tmp_path / f"plain{case}"
            crash_dir = tmp_path / f"crash{case}"
            ResilientRunner(build(kind), plain_dir, checkpoint_every=interval).run(
                stream
            )
            fault = FaultInjector(crash_at=crash_at)
            runner, restarts = run_to_completion(
                kind, crash_dir, stream, interval, fault
            )

            context = f"kind={kind} seed={SEED} case={case} crash_at={crash_at} interval={interval}"
            assert restarts == len(crash_at), context
            assert (crash_dir / DELIVERED_NAME).read_bytes() == (
                plain_dir / DELIVERED_NAME
            ).read_bytes(), context

            # Exactly-once: no duplicate (seq, key) records.
            records = [
                json.loads(line)
                for line in (crash_dir / DELIVERED_NAME).read_text().splitlines()
            ]
            assert [r["seq"] for r in records] == list(range(len(records))), context
            keys = [json.dumps(r["key"]) for r in records]
            assert len(keys) == len(set(keys)), context

            # The delivered log agrees with a bare, never-checkpointed engine.
            bare = build(kind)
            bare.run(stream)
            assert len(records) == len(bare.results), context


def test_speculative_results_survive_crashes(tmp_path):
    """Sealed deliveries and the speculative stream survive crash/restore."""
    rng = random.Random(SEED + 7)
    stream = make_stream("speculative", rng)
    crash_at = sorted(rng.sample(range(len(stream)), 2))

    bare = build("speculative")
    bare.run(stream)

    fault = FaultInjector(crash_at=crash_at)
    runner, restarts = run_to_completion("speculative", tmp_path, stream, 20, fault)
    assert restarts == 2
    # The delivery log holds sealed matches only: it is the result set.
    events = [e for e in stream if isinstance(e, Event)]
    assert delivered_once(tmp_path) == OfflineOracle(PATTERN).evaluate_set(events)
    # Nobody took the speculative stream, so it rode every checkpoint.
    log, reference = runner.engine.speculation, bare.speculation
    assert [(r.seq, r.match.key()) for r in log.emissions] == [
        (r.seq, r.match.key()) for r in reference.emissions
    ]
    assert [(r.seq, r.ref_seq, r.cause) for r in log.retractions] == [
        (r.seq, r.ref_seq, r.cause) for r in reference.retractions
    ]
