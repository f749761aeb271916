"""The runner's hand-assembled log lines are ``json.dumps`` byte for byte.

``wal.jsonl`` and ``delivered.jsonl`` are the recovery contract: a
restart re-reads them, and the parent-written fixture must keep
recovering.  Both lines are formatted directly on the common path (a
flat int/str attribute map; a plain match key) and fall back to
``json.dumps(record, sort_keys=True)`` for everything else.  These
properties pin the two paths to the same bytes, and the fixture re-run
pins today's writer to the bytes an older commit wrote.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import CrashError, Event, FaultInjector, Punctuation, ResilientRunner
from repro.core import recovery
from repro.core.pattern import Match
from repro.core.recovery import DELIVERED_NAME, WAL_NAME, encode_element

FIXTURE = Path(__file__).parent / "fixtures" / "parent_checkpoint"

#: Strings json must escape: quotes, backslashes, control and non-ASCII
#: characters (astral ones become surrogate pairs).
tricky_text = st.one_of(
    st.text(max_size=12),
    st.sampled_from(
        ['"', "\\", 'a"b\\c', "\n\t\x00", "é", "naïve", "日本", "\U0001f600", " "]
    ),
)
big_ints = st.one_of(
    st.integers(),
    st.integers(min_value=2**63 - 2, max_value=2**63 + 2),
    st.integers(min_value=2**64, max_value=2**200),
)
flat_values = st.one_of(big_ints, tricky_text)
json_values = st.recursive(
    st.none() | st.booleans() | st.floats(allow_nan=True) | big_ints | tricky_text,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(tricky_text, children, max_size=3),
    max_leaves=6,
)
timestamps = st.integers(min_value=0, max_value=2**70)
eids = st.one_of(big_ints, st.text(max_size=4))


def wal_reference(element) -> str:
    return json.dumps(encode_element(element), sort_keys=True)


def delivery_reference(match: Match, seq: int) -> str:
    # json.dumps writes tuples as arrays, which is what the log holds.
    record = {
        "seq": seq,
        "start_ts": match.events[0].ts,
        "end_ts": match.events[-1].ts,
        "key": match.key(),
    }
    return json.dumps(record, sort_keys=True) + "\n"


# -- WAL lines ---------------------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(
    etype=tricky_text.filter(bool),
    ts=timestamps,
    eid=eids,
    attrs=st.dictionaries(tricky_text, st.one_of(flat_values, json_values), max_size=4),
)
def test_wal_line_is_sorted_json_dumps(etype, ts, eid, attrs):
    event = Event(etype, ts, attrs, eid=eid)
    assert recovery._element_wal_line(event) == wal_reference(event)


@settings(max_examples=100, deadline=None)
@given(ts=timestamps)
def test_wal_line_of_a_punctuation(ts):
    assert recovery._element_wal_line(Punctuation(ts)) == wal_reference(Punctuation(ts))


@pytest.mark.parametrize(
    "attrs",
    [{"flag": True}, {"ratio": 0.5}, {"gone": None}, {"nested": {"a": [1]}},
     {"items": [1, 2]}, {"x": 1, "y": float("nan")}, {1: 2, 3: "z"}],
    ids=["bool", "float", "none", "dict", "list", "nan", "int-keys"],
)
def test_wal_values_outside_int_and_str_take_the_encoder(attrs):
    event = Event("A", 7, attrs, eid=3)
    with mock.patch.object(recovery.json, "dumps", wraps=json.dumps) as dumps:
        line = recovery._element_wal_line(event)
    assert dumps.call_count == 1
    assert line == wal_reference(event)


@pytest.mark.parametrize(
    "attrs", [{}, {"x": 1, "s": "plain"}, {"ké": "vé\\\"", "n": -(2**70)}],
    ids=["empty", "flat", "non-ascii"],
)
def test_flat_wal_lines_skip_the_encoder(attrs):
    event = Event("A", 7, attrs, eid=2**63 + 1)
    with mock.patch.object(recovery.json, "dumps", side_effect=AssertionError):
        line = recovery._element_wal_line(event)
    assert line == wal_reference(event)


# -- delivery lines ----------------------------------------------------------------------


names = st.one_of(tricky_text.filter(bool), st.integers(), st.none())


@st.composite
def matches(draw):
    events = [
        Event("T", ts, {}, eid=draw(eids))
        for ts in sorted(draw(st.lists(timestamps, min_size=1, max_size=4)))
    ]
    collections = None
    if draw(st.booleans()):
        collections = {
            draw(tricky_text): tuple(
                Event("K", ts, {}, eid=draw(eids))
                for ts in draw(st.lists(timestamps, min_size=1, max_size=3))
            )
            for _ in range(draw(st.integers(1, 2)))
        }
    return Match(SimpleNamespace(name=draw(names)), events, collections=collections)


@settings(max_examples=400, deadline=None)
@given(match=matches(), seq=st.integers(min_value=0, max_value=2**40))
def test_delivery_line_is_sorted_json_dumps(match, seq):
    assert recovery._delivery_line(match, seq) == delivery_reference(match, seq)


def _match(name="q", eids=(1, 2), collections=None):
    events = [Event("T", 10 + i, {}, eid=eid) for i, eid in enumerate(eids)]
    return Match(SimpleNamespace(name=name), events, collections=collections)


@pytest.mark.parametrize(
    "match",
    [_match(name=7), _match(eids=(1, "two")), _match(eids=(True, 2)),
     _match(collections={"k": (Event("K", 11, {}, eid=5),)})],
    ids=["int-name", "str-eid", "bool-eid", "kleene"],
)
def test_unplain_match_keys_take_the_encoder(match):
    with mock.patch.object(recovery.json, "dumps", wraps=json.dumps) as dumps:
        line = recovery._delivery_line(match, 4)
    assert dumps.call_count == 1
    assert line == delivery_reference(match, 4)


@pytest.mark.parametrize(
    "match",
    [_match(), _match(name='a "quoted" \\ näme', eids=(2**63, 2**64 + 1, 0))],
    ids=["plain", "escaped-name-big-eids"],
)
def test_plain_match_keys_skip_the_encoder(match):
    with mock.patch.object(recovery.json, "dumps", side_effect=AssertionError):
        line = recovery._delivery_line(match, 9)
    assert line == delivery_reference(match, 9)


# -- the parent-written fixture, rewritten ------------------------------------------------


def _fixture_generator():
    spec = importlib.util.spec_from_file_location(
        "parent_checkpoint_generate", FIXTURE / "generate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parent_fixture_scenario_rewrites_the_same_log_bytes(tmp_path):
    """Today's runner, fed the fixture's scenario up to its crash, writes
    the WAL and the delivery log the older commit wrote, byte for byte
    (the checkpoint's format moved on, so it is not compared)."""
    generate = _fixture_generator()
    scenario = generate.SCENARIO
    runner = ResilientRunner(
        generate.make_engine(), tmp_path,
        checkpoint_every=scenario["checkpoint_every"],
        fault=FaultInjector(crash_at=[scenario["crash_at"]]),
    )
    with pytest.raises(CrashError):
        runner.run(generate.stream())
    runner._close_handles()
    pinned = json.loads((FIXTURE / "PROVENANCE.json").read_text())["sha256"]
    for name in (WAL_NAME, DELIVERED_NAME):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == pinned[name]
