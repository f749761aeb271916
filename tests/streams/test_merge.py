"""Stream merging (repro.streams.merge)."""

import pytest

from repro import ConfigurationError
from repro.streams import SyntheticSource, interleave_by_arrival, measure_disorder


def sources(n, count=100):
    return [SyntheticSource(["A", "B"], count, seed=i, interval=2).take(count) for i in range(n)]


class TestInterleave:
    def test_preserves_per_stream_order(self):
        streams = sources(3)
        merged = interleave_by_arrival(streams, seed=1)
        for stream in streams:
            positions = [merged.index(e) for e in stream]
            assert positions == sorted(positions)

    def test_preserves_multiset(self):
        streams = sources(3)
        merged = interleave_by_arrival(streams, seed=2)
        assert sorted(e.eid for e in merged) == sorted(
            e.eid for stream in streams for e in stream
        )

    def test_merge_creates_disorder(self):
        streams = sources(4)
        merged = interleave_by_arrival(streams, seed=3)
        assert measure_disorder(merged).displaced > 0

    def test_single_stream_stays_ordered(self):
        streams = sources(1)
        merged = interleave_by_arrival(streams, seed=4)
        assert measure_disorder(merged).displaced == 0

    def test_deterministic(self):
        streams = sources(3)
        assert [e.eid for e in interleave_by_arrival(streams, seed=5)] == [
            e.eid for e in interleave_by_arrival(streams, seed=5)
        ]

    def test_burstiness_validated(self):
        with pytest.raises(ConfigurationError):
            interleave_by_arrival(sources(2), burstiness=0)

    def test_bursty_interleave_valid_permutation(self):
        streams = sources(3)
        merged = interleave_by_arrival(streams, seed=6, burstiness=5)
        assert len(merged) == sum(len(s) for s in streams)
