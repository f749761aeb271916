"""Event sources (repro.streams.source)."""

import pytest

from repro import ConfigurationError
from repro.streams import SyntheticSource


class TestSyntheticSource:
    def test_count_and_order(self):
        source = SyntheticSource(["A", "B"], count=100, seed=1)
        events = list(source.events())
        assert len(events) == 100
        timestamps = [e.ts for e in events]
        assert timestamps == sorted(timestamps)

    def test_deterministic_under_seed(self):
        first = [
            (e.etype, e.ts, e.attrs)
            for e in SyntheticSource(["A", "B"], 50, seed=7).events()
        ]
        second = [
            (e.etype, e.ts, e.attrs)
            for e in SyntheticSource(["A", "B"], 50, seed=7).events()
        ]
        assert first == second

    def test_different_seeds_differ(self):
        first = [e.etype for e in SyntheticSource(list("ABCD"), 50, seed=1).events()]
        second = [e.etype for e in SyntheticSource(list("ABCD"), 50, seed=2).events()]
        assert first != second

    def test_types_restricted_to_alphabet(self):
        events = SyntheticSource(["A", "B"], 200, seed=3).take(200)
        assert {e.etype for e in events} == {"A", "B"}

    def test_interval_spacing(self):
        events = SyntheticSource(["A"], 10, seed=1, interval=5).take(10)
        gaps = [b.ts - a.ts for a, b in zip(events, events[1:])]
        assert all(gap == 5 for gap in gaps)

    def test_jitter_allows_ties(self):
        events = SyntheticSource(["A"], 300, seed=1, interval=1, jitter=1).take(300)
        gaps = [b.ts - a.ts for a, b in zip(events, events[1:])]
        assert 0 in gaps  # ties exercised
        assert all(0 <= gap <= 2 for gap in gaps)

    def test_weights_bias_selection(self):
        events = SyntheticSource(
            ["A", "B"], 1000, seed=1, weights=[0.9, 0.1]
        ).take(1000)
        a_count = sum(1 for e in events if e.etype == "A")
        assert a_count > 700

    def test_custom_attr_maker(self):
        source = SyntheticSource(
            ["A"], 5, seed=1, attr_maker=lambda rng, ts: {"double": ts * 2}
        )
        for event in source.events():
            assert event["double"] == event.ts * 2

    def test_take_limits(self):
        assert len(SyntheticSource(["A"], 100, seed=1).take(7)) == 7

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"types": [], "count": 5},
            {"types": ["A"], "count": -1},
            {"types": ["A"], "count": 5, "interval": -1},
            {"types": ["A"], "count": 5, "weights": [0.5, 0.5]},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            SyntheticSource(**kwargs)
