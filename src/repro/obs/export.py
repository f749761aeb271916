"""Exporters: Prometheus text exposition and JSON-lines emission.

Both formats are views over :meth:`MetricsRegistry.snapshot_state` — the
same payload the checkpoint layer persists — so anything a scraper sees
can be reconstructed from a checkpoint and vice versa.

The Prometheus renderer follows the text exposition format (version
0.0.4): ``# HELP`` / ``# TYPE`` headers once per metric family,
cumulative ``_bucket`` series with ``le`` labels ending in ``+Inf``,
plus ``_sum`` and ``_count`` for histograms.  Label values are escaped
per the spec (backslash, double quote, newline) and
:func:`parse_prometheus` owns the matching unescape, so render → parse
round-trips for any help text or label value.  No timestamps are
emitted — the stream's clock is logical, and scrape time is the
collector's business.
"""

from __future__ import annotations

import json
from typing import IO, List, Optional, Tuple

from repro.obs.metrics import (
    LabelPairs,
    MetricsRegistry,
    escape_label_value,
)


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_bound(bound: float) -> str:
    return str(bound)


def _render_sample(name: str, labels: LabelPairs, value: float) -> str:
    if not labels:
        return f"{name} {value}"
    body = ",".join(
        f'{key}="{escape_label_value(val)}"' for key, val in labels
    )
    return f"{name}{{{body}}} {value}"


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in Prometheus text exposition format."""
    lines: List[str] = []
    headed = set()
    for metric in registry.metrics():
        name = metric.name
        if name not in headed:
            headed.add(name)
            if metric.help:
                lines.append(f"# HELP {name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {name} {metric.kind}")
        if metric.kind == "histogram":
            cumulative = 0
            for bound, bucket_count in zip(metric.bounds, metric.counts):
                cumulative += bucket_count
                lines.append(
                    _render_sample(
                        f"{name}_bucket",
                        metric.labels + (("le", _format_bound(bound)),),
                        cumulative,
                    )
                )
            cumulative += metric.counts[-1]
            lines.append(
                _render_sample(
                    f"{name}_bucket", metric.labels + (("le", "+Inf"),), cumulative
                )
            )
            lines.append(_render_sample(f"{name}_sum", metric.labels, metric.total))
            lines.append(_render_sample(f"{name}_count", metric.labels, metric.count))
        else:
            lines.append(_render_sample(name, metric.labels, metric.value))
    return "\n".join(lines) + "\n"


def parse_sample_line(line: str) -> Tuple[str, List[Tuple[str, str]], float]:
    """Tokenize one exposition sample: ``(name, label_pairs, value)``.

    Understands quoted label values with ``\\\\``, ``\\"`` and ``\\n``
    escapes — the inverse of :func:`render_prometheus`'s escaping, which
    the old ``rpartition(" ")`` parser got wrong whenever a label value
    held a space, quote, or escaped newline.
    """
    i = 0
    while i < len(line) and (line[i].isalnum() or line[i] in "_:"):
        i += 1
    name = line[:i]
    if not name:
        raise ValueError(f"malformed exposition line: {line!r}")
    labels: List[Tuple[str, str]] = []
    rest = line[i:]
    if rest.startswith("{"):
        j = 1
        while True:
            while j < len(rest) and rest[j] in " \t":
                j += 1
            if j < len(rest) and rest[j] == "}":
                j += 1
                break
            k = j
            while k < len(rest) and (rest[k].isalnum() or rest[k] == "_"):
                k += 1
            label_name = rest[j:k]
            if not label_name or k >= len(rest) or rest[k] != "=":
                raise ValueError(f"malformed labels in line: {line!r}")
            k += 1
            if k >= len(rest) or rest[k] != '"':
                raise ValueError(f"label value must be quoted: {line!r}")
            k += 1
            value_chars: List[str] = []
            terminated = False
            while k < len(rest):
                ch = rest[k]
                if ch == "\\":
                    if k + 1 >= len(rest):
                        raise ValueError(f"dangling escape in line: {line!r}")
                    nxt = rest[k + 1]
                    value_chars.append("\n" if nxt == "n" else nxt)
                    k += 2
                    continue
                if ch == '"':
                    terminated = True
                    k += 1
                    break
                value_chars.append(ch)
                k += 1
            if not terminated:
                raise ValueError(f"unterminated label value in line: {line!r}")
            labels.append((label_name, "".join(value_chars)))
            while k < len(rest) and rest[k] in " \t":
                k += 1
            if k < len(rest) and rest[k] == ",":
                j = k + 1
                continue
            if k < len(rest) and rest[k] == "}":
                j = k + 1
                break
            raise ValueError(f"malformed labels in line: {line!r}")
        rest = rest[j:]
    raw = rest.strip()
    if not raw or " " in raw:
        raise ValueError(f"malformed exposition line: {line!r}")
    return name, labels, float(raw)


def parse_prometheus(text: str) -> dict:
    """Parse text produced by :func:`render_prometheus` back to samples.

    Returns ``{sample_name_with_labels: value}`` with label values
    *re-escaped* into the canonical rendered form — so the keys of
    ``parse_prometheus(render_prometheus(reg))`` match the rendered
    sample lines exactly, whatever the label values contain.  Raises
    ``ValueError`` on any line that is neither a comment nor a
    well-formed ``name[{labels}] value`` sample.
    """
    samples = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, labels, value = parse_sample_line(line)
        if labels:
            body = ",".join(
                f'{key}="{escape_label_value(val)}"' for key, val in labels
            )
            key = f"{name}{{{body}}}"
        else:
            key = name
        samples[key] = int(value) if value.is_integer() else value
    return samples


class MetricsJsonWriter:
    """Periodic JSON-lines emission of registry snapshots.

    Each line is ``{"seq": N, "metrics": <snapshot_state payload>}`` —
    the metrics half feeds straight back into
    :meth:`MetricsRegistry.restore_state`, which is what the CLI
    round-trip test exercises.

    :meth:`close` writes the trailing partial interval: a run whose
    length is not a multiple of the periodic cadence still ends with a
    final snapshot (and a run that landed exactly on the cadence does
    not get a duplicate — the writer remembers the last ``seq`` it
    emitted).
    """

    __slots__ = ("_sink", "written", "last_seq")

    def __init__(self, sink: IO[str]):
        self._sink = sink
        self.written = 0
        self.last_seq: Optional[int] = None

    def write(self, seq: int, registry: MetricsRegistry) -> None:
        record = {"seq": seq, "metrics": registry.snapshot_state()}
        self._sink.write(json.dumps(record, sort_keys=True) + "\n")
        self.written += 1
        self.last_seq = seq

    def close(self, seq: int, registry: MetricsRegistry) -> None:
        """Flush a final snapshot unless *seq* was already written."""
        if self.last_seq != seq:
            self.write(seq, registry)
        self.flush()

    def flush(self) -> None:
        self._sink.flush()

