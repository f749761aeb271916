"""Instrumented runs reproduce the frozen spans, registry and stats.

``observability.json`` holds, for every engine family under tracing plus
metrics and under metrics alone, what an instrumented run reported when
fed per element and in batches of 1, 7 and all (see
``observability.py``).  Any drift in a span, a registry sample or a
counter fails here, byte for byte.
"""

import json
from pathlib import Path

import pytest

import observability  # sibling module: pytest puts this directory on sys.path

_GOLDEN = json.loads((Path(__file__).parent / "observability.json").read_text())


def test_file_covers_every_family_mode_and_driver():
    assert set(observability.keys()) == set(_GOLDEN["index"])


@pytest.mark.parametrize("key", observability.keys())
def test_instrumented_run_is_reproduced(key):
    live = observability.canonical(observability.record_key(key))
    expected = _GOLDEN["records"][_GOLDEN["index"][key]]
    assert live == observability.canonical(expected)
