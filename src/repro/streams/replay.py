"""Trace record / replay: persistent, portable arrival traces.

Benchmarks and regression tests need the *same arrival sequence* across
runs and machines.  A trace file is a JSON-lines document: one header
line, then one line per stream element, preserving arrival order,
event identity (eid), occurrence timestamps and attributes — everything
result-set comparison depends on.

The format is deliberately boring (sorted-key JSON, no floats in
identity fields) so traces can be diffed and committed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Union

from repro.core.errors import StreamError
from repro.core.event import Event, Punctuation, StreamElement

_FORMAT = "repro-trace-v1"


def dump_trace(elements: Iterable[StreamElement], path: Union[str, Path]) -> int:
    """Write elements to *path*; returns the element count."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps({"format": _FORMAT}) + "\n")
        for element in elements:
            handle.write(json.dumps(_encode(element), sort_keys=True) + "\n")
            count += 1
    return count


def load_trace(path: Union[str, Path]) -> List[StreamElement]:
    """Read a trace written by :func:`dump_trace`."""
    path = Path(path)
    elements: List[StreamElement] = []
    with path.open("r", encoding="utf-8") as handle:
        header_line = handle.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise StreamError(f"{path}: not a trace file ({exc})") from None
        if header.get("format") != _FORMAT:
            raise StreamError(
                f"{path}: unsupported trace format {header.get('format')!r}"
            )
        for line_number, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise StreamError(f"{path}:{line_number}: bad JSON ({exc})") from None
            elements.append(_decode(record, path, line_number))
    return elements


def _encode(element: StreamElement) -> dict:
    if isinstance(element, Punctuation):
        return {"kind": "punctuation", "ts": element.ts}
    if isinstance(element, Event):
        return {
            "kind": "event",
            "etype": element.etype,
            "ts": element.ts,
            "eid": element.eid,
            "attrs": element.attrs,
        }
    raise StreamError(f"cannot encode {element!r}")


def _decode(record: dict, path: Path, line_number: int) -> StreamElement:
    kind = record.get("kind")
    if kind == "punctuation":
        return Punctuation(record["ts"])
    if kind == "event":
        try:
            return Event(
                record["etype"],
                record["ts"],
                record.get("attrs") or {},
                eid=record["eid"],
            )
        except (KeyError, StreamError) as exc:
            raise StreamError(f"{path}:{line_number}: bad event record ({exc})") from None
    raise StreamError(f"{path}:{line_number}: unknown record kind {kind!r}")
