"""The out-of-order engine's kernel, frozen as counters and digests.

``fixtures/kernel_fingerprint.json`` records what ``OutOfOrderEngine``
did on two stream shapes — the ``engine-disorder`` benchmark's
(``SyntheticWorkload``: a 3-step chain joined on ``part`` with a
negated step, W = K = 40, 30 % of events delayed by up to 40) and the
serving path's (``SEQ(A a, B b) WHERE a.x == b.x WITHIN 20``, cohorts
of 64 each closed by a punctuation) — under eager purge, lazy(16)
purge and a punctuation every 500 events.  Per stream it keeps
``EngineStats.as_dict()``, a sha256 over the emission sequence
``(key, emitted_seq, emitted_clock)`` and sha256s of the decoded
``snapshot()`` state (less the untaken results, which the emission
digest covers) at a third and two thirds of the stream.

Every case is replayed through ``feed_batch(512)``, ``feed_batch(64)``
and per-element ``feed`` and must reproduce the record exactly, so a
kernel change that moves a counter (purge runs, predicate evaluations,
index hits, the state high-water mark) or the emission order shows up
under its own name.  Regenerate with ``python
tests/core/test_kernel_fingerprint.py`` only for an intended behaviour
change, and say so in the commit.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pickle
import random
import sys
from pathlib import Path

HERE = Path(__file__).parent
if __name__ == "__main__":  # runnable from a bare checkout
    sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

import pytest  # noqa: E402

from repro import Event, OutOfOrderEngine, Punctuation, PurgePolicy, parse  # noqa: E402
from repro.streams.disorder import RandomDelayModel  # noqa: E402
from repro.workloads.synthetic import SyntheticWorkload  # noqa: E402

FIXTURE = HERE / "fixtures" / "kernel_fingerprint.json"

DISORDER_EVENTS = 20_000
DISORDER_SEEDS = (1, 2, 3)
DISORDER_K = 40
SERVE_EVENTS = 12_000
SERVE_QUERY = "PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 20"
SERVE_K = 16
SERVE_COHORT = 64

#: name -> (purge policy factory, punctuation every N events or None)
CONFIGS = {
    "eager": (PurgePolicy.eager, None),
    "lazy16": (lambda: PurgePolicy.lazy(16), None),
    "punct500": (PurgePolicy.eager, 500),
}
FEEDS = {"batch512": 512, "batch64": 64, "feed": 0}


def _renumbered(events):
    """Copies with eids fixed by occurrence index, independent of the process."""
    return {e.eid: Event(e.etype, e.ts, e.attrs, eid=i) for i, e in enumerate(events)}


@functools.lru_cache(maxsize=None)
def disorder_stream(seed):
    workload = SyntheticWorkload(
        query_length=3,
        event_count=DISORDER_EVENTS,
        within=40,
        partitions=8,
        negated_step=1,
        disorder=RandomDelayModel(0.30, 40, seed=seed),
        seed=seed,
    )
    occurrence, arrival = workload.generate()
    fixed = _renumbered(occurrence)
    return workload.query, DISORDER_K, 40, [fixed[e.eid] for e in arrival]


@functools.lru_cache(maxsize=None)
def serve_stream(seed=7):
    """A/B/C frames on 16 keys, 30 % delayed by up to 24, punctuated per cohort."""
    rng = random.Random(seed)
    occurrence = [
        Event(rng.choice("AABBC"), ts, {"x": rng.randrange(16)}, eid=ts)
        for ts in range(1, SERVE_EVENTS + 1)
    ]
    arrival = RandomDelayModel(0.30, 24, seed=seed).apply(occurrence)
    stream = []
    seen = 0
    for index, event in enumerate(arrival, 1):
        stream.append(event)
        seen = max(seen, event.ts)
        if index % SERVE_COHORT == 0:
            stream.append(Punctuation(seen - 25))
    return parse(SERVE_QUERY, name="serve"), SERVE_K, 24, stream


STREAMS = {f"disorder-s{seed}": (disorder_stream, seed) for seed in DISORDER_SEEDS}
STREAMS["serve"] = (serve_stream, 7)


def with_punctuations(stream, every, max_delay):
    """*stream* plus a punctuation after every *every* events, at max ts - delay - 1."""
    out = []
    seen = events = 0
    for element in stream:
        out.append(element)
        if isinstance(element, Event):
            events += 1
            seen = max(seen, element.ts)
            if events % every == 0:
                out.append(Punctuation(seen - max_delay - 1))
    return out


def canonical(value):
    """A JSON-ready, process-independent rendering of decoded snapshot state."""
    if isinstance(value, Event):
        return ["event", value.etype, value.ts, value.eid, canonical(value._attrs)]
    if isinstance(value, dict):
        return [[canonical(k), canonical(v)] for k, v in sorted(value.items(), key=_key_text)]
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((canonical(v) for v in value), key=json.dumps)
    if isinstance(value, float):
        return repr(value)
    return value


def _key_text(item):
    return repr(item[0])


def digest(value):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def state_digest(engine):
    """Digest of the decoded live state (the emission digest covers results)."""
    state = pickle.loads(engine.snapshot())["state"]
    del state["results"], state["emissions"]
    return digest(canonical(state))


def fingerprint(stream_name, config_name, feed_name):
    make, seed = STREAMS[stream_name]
    pattern, k, max_delay, stream = make(seed)
    purge, every = CONFIGS[config_name]
    if every is not None:
        stream = with_punctuations(stream, every, max_delay)
    engine = OutOfOrderEngine(pattern, k=k, purge=purge())
    size = FEEDS[feed_name]
    cuts = [0, len(stream) // 3, 2 * len(stream) // 3, len(stream)]
    snapshots = []
    for start, end in zip(cuts, cuts[1:]):
        segment = stream[start:end]
        if size:
            for at in range(0, len(segment), size):
                engine.feed_batch(segment[at:at + size])
        else:
            for element in segment:
                engine.feed(element)
        if end != len(stream):
            snapshots.append(state_digest(engine))
    engine.close()
    emissions = [
        [list(r.match.key()), r.emitted_seq, r.emitted_clock] for r in engine.emissions
    ]
    return {
        "stats": engine.stats.as_dict(),
        "emissions": digest(emissions),
        "matches": len(emissions),
        "snapshots": snapshots,
    }


CASES = [(s, c) for s in STREAMS for c in CONFIGS]


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())["cases"]


@pytest.mark.parametrize("feed", sorted(FEEDS))
@pytest.mark.parametrize("stream_name,config_name", CASES)
def test_kernel_fingerprint(recorded, stream_name, config_name, feed):
    expected = recorded[f"{stream_name}/{config_name}"]
    assert fingerprint(stream_name, config_name, feed) == expected


def main():
    commit = sys.argv[1] if len(sys.argv) > 1 else "unknown"
    cases = {}
    for stream_name, config_name in CASES:
        cases[f"{stream_name}/{config_name}"] = fingerprint(
            stream_name, config_name, "batch512"
        )
        print(stream_name, config_name, cases[f"{stream_name}/{config_name}"]["matches"])
    FIXTURE.write_text(
        json.dumps({"recorded_at": commit, "cases": cases}, indent=1, sort_keys=True)
        + "\n"
    )


if __name__ == "__main__":
    main()
