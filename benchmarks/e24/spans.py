"""Span recorder for the traced run: wraps public methods from outside.

The benchmark must keep working while the code under ``src/`` is
rewritten, so nothing in the program is edited or relies on private
names: the launcher replaces *public* methods on the classes it was
handed with wrappers that record ``(name, start, end, parent)`` into
in-memory arrays.  Everything wrapped is synchronous and runs on one
thread, so a plain stack gives each span its parent.

A layer's self time is its spans' duration minus the time their direct
children cover; self times therefore partition the time spent inside
top-level spans, which is what lets the ledger sum to busy time.
"""

from __future__ import annotations

import json
import time
from array import array
from typing import Any, Callable, Dict, List

_clock = time.perf_counter_ns  # CLOCK_MONOTONIC on Linux, like time.monotonic


class Recorder:
    """Append-only span store; one instance per traced process."""

    def __init__(self) -> None:
        self.labels: List[str] = []
        self._label_ids: Dict[str, int] = {}
        self.label = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self._open: List[int] = []

    def wrap(self, fn: Callable[..., Any], label: str) -> Callable[..., Any]:
        """*fn* recorded as a span called *label* on every call."""
        label_id = self._label_ids.setdefault(label, len(self.labels))
        if label_id == len(self.labels):
            self.labels.append(label)
        labels, starts, ends, parents = self.label, self.start, self.end, self.parent
        stack = self._open
        clock = _clock

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            parents.append(stack[-1] if stack else -1)
            labels.append(label_id)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_method(self, cls: type, attr: str, label: str) -> bool:
        """Replace ``cls.attr`` with its traced form; False when absent.

        A missing method is tolerated (its ledger line reads 0) so the
        benchmark outlives refactors that drop or rename a layer.
        """
        fn = getattr(cls, attr, None)
        if fn is None or getattr(fn, "__wrapped__", None) is not None:
            return False
        setattr(cls, attr, self.wrap(fn, label))
        return True

    # -- aggregation -------------------------------------------------------------------

    def mark(self) -> int:
        """A position in the span stream (spans recorded so far)."""
        return len(self.start)

    def summarize(self, since: int = 0) -> Dict[str, Any]:
        """Per-label calls / total / self time (ns) of the spans from *since* on.

        Returns ``{"labels": {label: {"calls", "total_ns", "self_ns"}},
        "top_level_ns": ...}``; a span whose parent lies before *since*
        counts as top level.
        """
        count = len(self.labels)
        calls = [0] * count
        total = [0] * count
        child = [0] * count
        top_level = 0
        label, start, end, parent = self.label, self.start, self.end, self.parent
        for index in range(since, len(start)):
            duration = end[index] - start[index]
            label_id = label[index]
            calls[label_id] += 1
            total[label_id] += duration
            up = parent[index]
            if up >= since:
                child[label[up]] += duration
            else:
                top_level += duration
        return {
            "labels": {
                self.labels[i]: {
                    "calls": calls[i],
                    "total_ns": total[i],
                    "self_ns": total[i] - child[i],
                }
                for i in range(count)
            },
            "top_level_ns": top_level,
        }

    def durations(self, label: str, since: int = 0) -> List[int]:
        """Every duration (ns) of *label*'s spans from *since* on, in order."""
        label_id = self._label_ids.get(label)
        if label_id is None:
            return []
        return [
            self.end[i] - self.start[i]
            for i in range(since, len(self.start))
            if self.label[i] == label_id
        ]

    def write(self, path: Any, meta: Dict[str, Any]) -> None:
        """One JSON line of metadata, then ``[label_id, start_ns, end_ns, parent]``
        per span (``parent`` is a line index into the span list, -1 for none)."""
        header = dict(meta)
        header["labels"] = self.labels
        header["columns"] = ["label_id", "start_ns", "end_ns", "parent"]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            label, start, end, parent = self.label, self.start, self.end, self.parent
            chunk: List[str] = []
            for index in range(len(start)):
                chunk.append(
                    "[%d,%d,%d,%d]\n"
                    % (label[index], start[index], end[index], parent[index])
                )
                if len(chunk) == 65536:
                    handle.writelines(chunk)
                    chunk = []
            handle.writelines(chunk)


def read_trace(path: Any) -> Dict[str, Any]:
    """Load a trace file: ``{"meta": ..., "spans": [[label, start, end, parent]]}``."""
    with open(path, "r", encoding="utf-8") as handle:
        meta = json.loads(handle.readline())
        spans = [json.loads(line) for line in handle]
    return {"meta": meta, "spans": spans}
