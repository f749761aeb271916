"""The cohort is the unit of work: cutting must not change results.

The gateway feeds the engine once per group commit
(:meth:`IngestGateway.sync_acks`) — the cohort's admitted events and
then the merged watermark — not once per frame.  For sources
that honour their ``source_slack`` that is invisible in the output: a
later punctuation subsumes every earlier one and no event in between
was late against it.  Randomised here over multi-source streams — in
order and disordered, over a negation query — cut into random cohorts:

* the delivered match multiset equals the offline oracle's and equals
  the run whose every cohort is one frame (the per-frame cadence);
* ``admit_frame`` logs nothing, and each ``sync_acks`` hands the
  runner the cohort's admitted events followed by at most one
  punctuation in exactly one ``runner.feed`` call; WAL punctuations are
  strictly increasing;
* a crash at a cohort's punctuation (the whole cohort logged, none of
  it applied, nothing acked) recovers exactly-once when the cohort is
  resent.

Scenarios are seeded from ``REPRO_OBS_SEED`` like the parity suite.
"""

from __future__ import annotations

import os
import random
from collections import Counter

import pytest

from repro import CrashError, FaultInjector, OfflineOracle, OutOfOrderEngine, parse
from repro.core.event import Event, Punctuation
from repro.core.recovery import read_wal_elements
from repro.ingest import EventSchema, FieldSpec, GatewayConfig, IngestGateway, StreamSchema

from helpers import delivered_once, delivery_log

SEED = int(os.environ.get("REPRO_OBS_SEED", "0"))
SCENARIOS = 6
PATTERN = parse(
    "PATTERN SEQ(A a, !C c, B b) WHERE a.x == b.x AND c.x == a.x WITHIN 12"
)


def _schema(slack: int) -> StreamSchema:
    fields = [FieldSpec("ts", "int"), FieldSpec("x", "int")]
    return StreamSchema(
        "orders",
        t_event="ts",
        events=[EventSchema(etype, list(fields)) for etype in "ABC"],
        ordering_scope="global" if slack else "per_source",
        source_slack=slack,
    )


def _gateway(directory, slack: int, fault=None) -> IngestGateway:
    return IngestGateway(
        lambda: OutOfOrderEngine(PATTERN, k=slack + 1),
        GatewayConfig(_schema(slack), liveness_timeout=1e6),
        directory=directory,
        fault=fault,
    )


def _frames(rng: random.Random, slack: int):
    """One tick per event over 2-3 sources, displaced by at most *slack*
    ticks, so each source's own disorder honours the slack; a few frames
    are redelivered."""
    sources = ["s%d" % i for i in range(rng.randint(2, 3))]
    drafts = []
    for ts in range(1, rng.randint(40, 90)):
        etype = rng.choices("ABC", (45, 45, 10))[0]
        frame = (rng.choice(sources), etype, {"ts": ts, "x": rng.randint(0, 2)})
        drafts.append((ts + rng.randint(0, slack), ts, frame))
    drafts.sort(key=lambda draft: draft[:2])
    frames = []
    for __, __, frame in drafts:
        frames.append(frame)
        if rng.random() < 0.1:
            frames.append(frame)
    return frames


def _cut(rng: random.Random, frames):
    cohorts, at = [], 0
    while at < len(frames):
        size = rng.randint(1, 9)
        cohorts.append(frames[at:at + size])
        at += size
    return cohorts


def _drive(gateway: IngestGateway, cohorts) -> int:
    """Commit *cohorts* in turn; the index of the one whose punctuation
    crashed, or ``len(cohorts)``.  Checks what each call may log."""
    runner = gateway.runner
    handed = []  # what each runner.feed call was given
    inner = runner.feed

    def feed(elements):
        handed.append(list(elements))
        return inner(elements)

    runner.feed = feed
    for index, cohort in enumerate(cohorts):
        before = runner.seq
        admitted = 0
        for source, etype, attrs in cohort:
            ack = gateway.admit_frame(source, etype, attrs, now=0.0)
            admitted += ack["status"] == "admitted"
        assert runner.seq == before and not handed  # admission logs nothing
        try:
            gateway.sync_acks()
        except CrashError:
            return index
        logged = runner.seq - before
        assert logged - admitted in (0, 1)
        # One runner.feed per commit: the events, then the punctuation.
        assert len(handed) == (1 if logged else 0)
        for elements in handed:
            assert len(elements) == logged
            assert all(type(e) is Event for e in elements[:admitted])
            assert all(type(e) is Punctuation for e in elements[admitted:])
        handed.clear()
    return len(cohorts)


def _truth(frames, slack: int) -> Counter:
    schema = _schema(slack)
    distinct = {
        (etype, attrs["ts"]): schema.build_event(etype, attrs)
        for __, etype, attrs in frames
    }
    return Counter(OfflineOracle(PATTERN).evaluate_set(list(distinct.values())))


def _delivered(directory) -> Counter:
    """The delivery log as a multiset: a match delivered twice counts twice."""
    return Counter(delivery_log(directory))


@pytest.mark.parametrize("slack", [0, 3], ids=["inorder", "disordered"])
@pytest.mark.parametrize("scenario", range(SCENARIOS))
def test_cohort_cuts_never_change_the_match_multiset(tmp_path, scenario, slack):
    rng = random.Random(SEED * 9000 + 17 * scenario + slack)
    frames = _frames(rng, slack)
    cohorts = _cut(rng, frames)
    truth = _truth(frames, slack)
    assert truth, "scenario produced no matches"

    cohorted = _gateway(tmp_path / "cohorted", slack)
    assert _drive(cohorted, cohorts) == len(cohorts)
    cohorted.seal()
    per_frame = _gateway(tmp_path / "per-frame", slack)
    _drive(per_frame, [[frame] for frame in frames])
    per_frame.seal()
    label = f"seed {SEED} scenario {scenario} slack {slack}"
    assert _delivered(tmp_path / "cohorted") == truth, label
    assert _delivered(tmp_path / "per-frame") == truth, label
    assert cohorted.stats()["matches"] == per_frame.stats()["matches"] == len(truth)
    assert cohorted.engine.stats.late_dropped == 0

    marks = [
        element.ts
        for element in read_wal_elements(tmp_path / "cohorted")
        if isinstance(element, Punctuation)
    ]
    assert marks and len(marks) <= len(cohorts)
    assert all(a < b for a, b in zip(marks, marks[1:])), label


@pytest.mark.parametrize("slack", [0, 3], ids=["inorder", "disordered"])
@pytest.mark.parametrize("scenario", range(SCENARIOS))
def test_crash_before_the_cohort_punctuation_is_exactly_once(tmp_path, scenario, slack):
    rng = random.Random(SEED * 9000 + 17 * scenario + slack)
    frames = _frames(rng, slack)
    cohorts = _cut(rng, frames)
    truth = _truth(frames, slack)

    # The uncrashed run says at which WAL index each punctuation lands.
    reference = _gateway(tmp_path / "reference", slack)
    _drive(reference, cohorts)
    reference.seal()
    punctuated = [
        index
        for index, element in enumerate(read_wal_elements(tmp_path / "reference"))
        if isinstance(element, Punctuation)
    ]
    crash_at = rng.choice(punctuated)

    directory = tmp_path / "crashed"
    first = _gateway(directory, slack, fault=FaultInjector(crash_at=[crash_at]))
    crashed_in = _drive(first, cohorts)
    assert first.crashed and crashed_in < len(cohorts)
    # Logged ahead of the crash, so the restart resumes from this mark.
    logged = read_wal_elements(directory)
    assert len(logged) == crash_at + 1 and isinstance(logged[-1], Punctuation)

    second = _gateway(directory, slack)
    assert second.liveness.watermarks.emitted == logged[-1].ts
    # Nothing of the crashed cohort was acked: the sources resend it all.
    assert _drive(second, cohorts[crashed_in:]) == len(cohorts) - crashed_in
    second.seal()
    assert second.admission.admitted + second.recovered_frames == len(
        {(etype, attrs["ts"]) for __, etype, attrs in frames}
    )
    label = f"seed {SEED} scenario {scenario} slack {slack} crash_at {crash_at}"
    assert Counter(delivered_once(directory)) == truth, label
