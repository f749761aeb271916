"""Trace record / replay: persistent, portable arrival traces.

Benchmarks and regression tests need the *same arrival sequence* across
runs and machines.  A trace file is a write-ahead-log segment with a
header: one ``{"format": "repro-trace-v2"}`` line, then one line per
stream element in arrival order, byte for byte the line
:class:`repro.core.recovery.ResilientRunner` logs for it (event
identity, occurrence timestamp and attributes — everything result-set
comparison depends on).

The format is deliberately boring (sorted-key JSON, no floats in
identity fields) so traces can be diffed and committed.  Files written
as ``repro-trace-v1`` (the same records, with punctuation spelled
``"punctuation"``) still load.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Union

from repro.core.errors import RecoveryError, StreamError
from repro.core.event import StreamElement
from repro.core.recovery import decode_element, encode_element

_FORMAT = "repro-trace-v2"
_FORMAT_V1 = "repro-trace-v1"


def dump_trace(elements: Iterable[StreamElement], path: Union[str, Path]) -> int:
    """Write elements to *path*; returns the element count."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps({"format": _FORMAT}) + "\n")
        for element in elements:
            handle.write(json.dumps(encode_element(element), sort_keys=True) + "\n")
            count += 1
    return count


def load_trace(path: Union[str, Path]) -> List[StreamElement]:
    """Read a trace written by :func:`dump_trace`, or a v1 trace file."""
    elements: List[StreamElement] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        try:
            version = json.loads(handle.readline()).get("format")
        except json.JSONDecodeError as exc:
            raise StreamError(f"{path}: not a trace file ({exc})") from None
        if version not in (_FORMAT, _FORMAT_V1):
            raise StreamError(f"{path}: unsupported trace format {version!r}")
        for number, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if version == _FORMAT_V1 and record.get("kind") == "punctuation":
                    record["kind"] = "punct"
                elements.append(decode_element(record))
            except json.JSONDecodeError as exc:
                raise StreamError(f"{path}:{number}: bad JSON ({exc})") from None
            except RecoveryError as exc:
                raise StreamError(f"{path}:{number}: {exc}") from None
            except (KeyError, StreamError) as exc:
                raise StreamError(f"{path}:{number}: bad event record ({exc})") from None
    return elements
