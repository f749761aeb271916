"""Golden table: ids, eids and quarantine reasons are frozen across PRs.

``admission_golden.json`` holds schema documents, frames, and for each
frame the quarantine reason or the idempotency id + eid the schema
derived **at the commit that recorded it** (the parent of the compiled
admission plan).  WALs, checkpoints and cross-restart dedupe depend on
these bytes, so the single-pass entry and the three public methods must
all reproduce the table.

Re-record (only when an id change is intended, which breaks every
existing durability directory)::

    PYTHONPATH=src python tests/ingest/test_admission_golden.py --record
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.ingest import StreamSchema

GOLDEN = Path(__file__).with_name("admission_golden.json")
TABLE = json.loads(GOLDEN.read_text(encoding="utf-8"))
SCHEMAS = {name: StreamSchema.from_dict(doc) for name, doc in TABLE["schemas"].items()}


def _case_id(case) -> str:
    return f"{case['schema']}-{json.dumps([case['etype'], case['attrs']])[:50]}"


@pytest.mark.parametrize("case", TABLE["cases"], ids=_case_id)
def test_golden_case(case):
    schema = SCHEMAS[case["schema"]]
    etype, attrs = case["etype"], case["attrs"]
    reason, idem = schema.screen(etype, attrs)
    assert reason == case["reason"]
    assert idem == case["idem"]
    assert schema.check_frame(etype, attrs) == case["reason"]
    if case["reason"] is None:
        assert schema.idempotency_id(etype, attrs) == case["idem"]
        assert schema.derive_eid(case["idem"]) == case["eid"]
        event = schema.build_event(etype, attrs)
        assert (event.etype, event.ts, event.eid) == (
            etype, attrs[schema.t_event], case["eid"],
        )
        assert schema.event_for(etype, attrs, idem) == event


def test_table_covers_every_quarantine_branch():
    reasons = " | ".join(case["reason"] or "" for case in TABLE["cases"])
    for fragment in (
        "event type must be a non-empty string",
        "attrs must be an object",
        "is not declared by stream",
        "is missing required field",
        "must be int, got True",
        "must be str",
        "must be float",
        "missing t_event field",
        "must be an int, got True",
        "must be >= 0",
        "missing partition key field",
        "missing idempotency field",
        "missing idempotency derivation field",
    ):
        assert fragment in reasons, fragment


def _record() -> None:
    """Fill in the outputs from the checked-out code's public methods."""
    for case in TABLE["cases"]:
        schema = SCHEMAS[case["schema"]]
        etype, attrs = case["etype"], case["attrs"]
        case["reason"] = schema.check_frame(etype, attrs)
        case["idem"] = case["eid"] = None
        if case["reason"] is None:
            case["idem"] = schema.idempotency_id(etype, attrs)
            case["eid"] = schema.build_event(etype, attrs).eid
    GOLDEN.write_text(json.dumps(TABLE, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        _record()
