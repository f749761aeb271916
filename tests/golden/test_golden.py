"""Golden regression fixture: committed trace, committed expected results.

``trace.jsonl`` is a recorded out-of-order arrival stream (1500 events,
30% disorder, delays ≤ 25); ``expected.json`` holds the oracle result
keys for three query shapes (chain join, negation, Kleene), computed
when the fixture was created.  These tests re-evaluate the trace with
the current code and demand byte-identical result identities — any
semantic drift in parser, pattern compilation, oracle, or any engine
shows up as a diff against history, independent of the generators.
"""

import json
from pathlib import Path

import pytest

import trajectories  # sibling module: pytest puts this directory on sys.path
from repro import (
    OfflineOracle,
    OutOfOrderEngine,
    PartitionedEngine,
    ReorderingEngine,
    parse,
)
from repro.streams import load_trace

GOLDEN = Path(__file__).parent


@pytest.fixture(scope="module")
def fixture():
    arrival = load_trace(GOLDEN / "trace.jsonl")
    expected = json.loads((GOLDEN / "expected.json").read_text())
    return arrival, expected


def _expected_keys(expected, name):
    keys = set()
    for key in expected["queries"][name]["keys"]:
        qname, anchors, collections = key
        keys.add(
            (
                qname,
                tuple(anchors),
                tuple((var, tuple(eids)) for var, eids in collections),
            )
        )
    return keys


@pytest.mark.parametrize("name", ["chain", "negation", "kleene"])
class TestGoldenResults:
    def test_oracle_reproduces_committed_results(self, fixture, name):
        arrival, expected = fixture
        query = parse(expected["queries"][name]["text"], name=name)
        keys = OfflineOracle(query).evaluate_set(arrival)
        assert keys == _expected_keys(expected, name)
        assert len(keys) == expected["queries"][name]["count"]

    def test_ooo_engine_reproduces_committed_results(self, fixture, name):
        arrival, expected = fixture
        query = parse(expected["queries"][name]["text"], name=name)
        engine = OutOfOrderEngine(query, k=expected["k"])
        engine.run(list(arrival))
        assert engine.result_set() == _expected_keys(expected, name)

    def test_reorder_engine_reproduces_committed_results(self, fixture, name):
        arrival, expected = fixture
        query = parse(expected["queries"][name]["text"], name=name)
        engine = ReorderingEngine(query, k=expected["k"])
        engine.run(list(arrival))
        assert engine.result_set() == _expected_keys(expected, name)

    def test_speculative_engine_reproduces_committed_results(self, fixture, name):
        arrival, expected = fixture
        query = parse(expected["queries"][name]["text"], name=name)
        engine = OutOfOrderEngine(query, k=expected["k"], speculative=True)
        engine.run(list(arrival))
        assert engine.result_set() == _expected_keys(expected, name)
        assert engine.speculation.net_keys() == _expected_keys(expected, name)

    def test_partitioned_engine_reproduces_committed_results(self, fixture, name):
        arrival, expected = fixture
        query = parse(expected["queries"][name]["text"], name=name)
        engine = PartitionedEngine(query, k=expected["k"])
        engine.run(list(arrival))
        assert engine.result_set() == _expected_keys(expected, name)


# -- golden trajectories (lossy / adaptive configurations) ---------------------------

_TRAJECTORIES = json.loads((GOLDEN / "trajectories.json").read_text())["trajectories"]


def test_trajectory_file_covers_every_configuration():
    assert set(trajectories.configs()) == set(_TRAJECTORIES)


@pytest.mark.parametrize("driver", list(trajectories.DRIVERS))
@pytest.mark.parametrize("name", list(trajectories.configs()))
def test_trajectory_is_reproduced_by_every_driver(name, driver):
    """The frozen per-event record holds for all four call shapes.

    Compared as canonical JSON text, i.e. byte for byte: emitted keys in
    order, (seq, clock) pairs, every counter, state size, clock triple,
    the speculation log, controller decisions, and — for
    the raising configurations — the error type and the state at the
    raise.
    """
    live = trajectories.record(name, driver)
    assert json.dumps(live, sort_keys=True) == json.dumps(
        _TRAJECTORIES[name], sort_keys=True
    )
